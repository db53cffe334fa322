"""SLO-aware scheduling: admission control, priorities, expiry, backpressure.

The scheduler is the single writer of the pending store and runs entirely
on the server's event loop.  Its contract:

* :meth:`submit` — admit a request (stamping arrival and deadline) or
  *shed* it immediately when the bounded queue is full, attaching a
  ``retry_after_ms`` hint derived from the cost model's calibrated drain
  estimate (classic load-shedding backpressure).
* :meth:`next_batch` — block until work is available, pick the most
  urgent lane (priority, then deadline), drop requests whose deadline
  already passed (*expiry* — executing them would waste array time a
  live request could use), size the batch with the cost model against
  the earliest deadline's slack, and take what is already queued for
  that lane.  The batcher is work-conserving by default
  (``batch_timeout_ms=0``): a worker that pulls a batch runs it at once,
  and batches still form under load because requests queue while every
  worker is busy.  A positive ``batch_timeout_ms`` opts into lingering
  up to that long for compatible requests to fill the batch (bounded by
  the slack itself, so lingering never causes the miss it is trying to
  amortize); each batch that actually waited is observed in the
  ``serve.batch.linger_ms`` histogram.
* :meth:`close` — wake every waiter; undrained requests resolve as
  ``CANCELLED``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from ..obs import get_logger, get_registry, get_tracer
from .batcher import Batch, Pending, PendingStore
from .costmodel import BatchCostModel
from .registry import ModelRegistry, RegisteredModel
from .request import InferenceRequest, InferenceResponse, Status

__all__ = ["SLOScheduler"]

_log = get_logger("serve.scheduler")


class SLOScheduler:
    """Priority admission queue + deadline-aware dynamic batcher."""

    def __init__(
        self,
        registry: ModelRegistry,
        cost_model: BatchCostModel,
        *,
        # No defaults: ServeConfig holds the one set of serving defaults.
        max_queue: int,
        max_batch: int,
        batch_timeout_ms: float,
        default_slo_ms: float,
        workers: int,
    ) -> None:
        self.registry = registry
        self.cost_model = cost_model
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.batch_timeout_ms = batch_timeout_ms
        self.default_slo_ms = default_slo_ms
        self.workers = workers
        self.store = PendingStore()
        self._wakeup = asyncio.Condition()
        self._closed = False
        self._draining = False
        self._metrics = get_registry()

    # ------------------------------------------------------------ admission

    async def submit(self, request: InferenceRequest) -> "asyncio.Future":
        """Admit (or shed) one request; returns the completion future."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        now = time.monotonic()
        request.arrival = now
        request.arrival_ns = time.perf_counter_ns()
        slo = request.slo_ms if request.slo_ms is not None else self.default_slo_ms
        request.slo_ms = slo
        # Deadline propagation: a request arriving over the wire carries
        # the client deadline's unspent budget (``deadline_ms``, already
        # decremented by every upstream hop).  The effective deadline is
        # the tighter of that budget and the server SLO — a stale hedged
        # duplicate whose budget is spent expires below without ever
        # taking a batch slot.
        budget = slo if request.deadline_ms is None else min(
            slo, request.deadline_ms)
        request.deadline = now + budget / 1000.0

        # The admission decision is one span of the request's trace: a
        # child of the wire context when the client minted one, a fresh
        # trace root for in-process submissions, nothing when disabled.
        tracer = get_tracer()
        span = tracer.span(
            "serve.admit", category="serve",
            ctx=request.trace, new_trace=request.trace is None,
            request_id=request.request_id, model=request.key.canonical(),
        )
        with span:
            if span.context is not None:
                request.trace = span.context

            if self._closed:
                if self._draining:
                    # Graceful drain: refuse politely with a retry hint sized to
                    # the work still queued, instead of a hard CANCELLED.
                    model = self._model_if_loaded(request)
                    retry = self.cost_model.drain_ms(
                        len(self.store) + 1, model, self.workers
                    )
                    self._metrics.counter("serve.requests",
                                          status=Status.SHED.value).inc()
                    self._metrics.counter("serve.drain_rejections").inc()
                    span.set(outcome="shed", reason="draining")
                    future.set_result(
                        self._terminal(request, Status.SHED, retry_after_ms=retry)
                    )
                else:
                    span.set(outcome="cancelled", reason="closed")
                    future.set_result(self._terminal(request, Status.CANCELLED))
                return future

            if budget <= 0.0:
                self._metrics.counter("serve.requests",
                                      status=Status.EXPIRED.value).inc()
                self._metrics.counter("serve.expired_at_admission").inc()
                span.set(outcome="expired", reason="deadline_budget_spent")
                _log.debug("expired at admission", id=request.request_id,
                           deadline_ms=request.deadline_ms)
                future.set_result(self._terminal(request, Status.EXPIRED))
                return future

            if len(self.store) >= self.max_queue:
                model = self._model_if_loaded(request)
                retry = self.cost_model.drain_ms(
                    len(self.store), model, self.workers
                )
                self._metrics.counter("serve.requests",
                                      status=Status.SHED.value).inc()
                self._metrics.counter("serve.shed").inc()
                span.set(outcome="shed", reason="queue_full",
                         queue=len(self.store))
                _log.debug("shed request", id=request.request_id,
                           queue=len(self.store), retry_after_ms=f"{retry:.1f}")
                future.set_result(
                    self._terminal(request, Status.SHED, retry_after_ms=retry)
                )
                return future

            self.store.push(Pending(request, future))
            span.set(outcome="admitted", queue=len(self.store))
            self._metrics.gauge("serve.queue.depth").set(len(self.store))
        async with self._wakeup:
            self._wakeup.notify_all()
        return future

    async def requeue(self, items) -> None:
        """Put a dispatched batch back in the queue (crashed worker).

        Deadlines are unchanged, so a request whose SLO lapsed while its
        worker died expires on the next :meth:`next_batch` pass rather
        than silently getting a second budget.
        """
        requeued = 0
        for pending in items:
            if not pending.future.done():
                self.store.push(pending)
                requeued += 1
        if requeued:
            self._metrics.counter("resilience.requeued").inc(requeued)
            self._metrics.gauge("serve.queue.depth").set(len(self.store))
            _log.warning("requeued batch from crashed worker", count=requeued)
        async with self._wakeup:
            self._wakeup.notify_all()

    def cancel(self, request_id: int) -> bool:
        """Cancel one *queued* request by id (the ``op: cancel`` wire op).

        The hedge loser's slot is released and its future resolves
        CANCELLED; a request already dispatched to a worker runs to
        completion (its answer is simply discarded by the hedging
        router), so cancellation is best-effort by design.
        """
        pending = self.store.remove(request_id)
        if pending is None:
            return False
        self._metrics.counter("serve.requests",
                              status=Status.CANCELLED.value).inc()
        self._metrics.counter("serve.cancelled_queued").inc()
        self._metrics.gauge("serve.queue.depth").set(len(self.store))
        if not pending.future.done():
            pending.future.set_result(
                self._terminal(pending.request, Status.CANCELLED)
            )
        _log.debug("cancelled queued request", id=request_id)
        return True

    def _model_if_loaded(self, request: InferenceRequest) -> Optional[RegisteredModel]:
        """A registered model for the retry hint, without triggering a build."""
        keys = self.registry.keys()
        if request.key in keys:
            return self.registry.get(request.key)
        return self.registry.get(keys[0]) if keys else None

    # ------------------------------------------------------------- batching

    async def next_batch(self) -> Optional[Batch]:
        """The next batch to execute, or ``None`` once closed and drained."""
        while True:
            async with self._wakeup:
                while not self._closed and self.store.next_key() is None:
                    await self._wakeup.wait()
            if self.store.next_key() is None:
                if self._closed:
                    return None
                continue

            lane = self.store.next_key()
            now = time.monotonic()
            head = self._reap_expired(lane, now)
            if head is None:
                continue  # whole lane had expired; pick again

            try:
                model = await self._model_for(head)
            except Exception as exc:  # unknown net, bad variant, OOM, ...
                # A failed build must resolve the request, not kill the
                # worker that pulled it: surface it as an ERROR response.
                self._metrics.counter("serve.requests",
                                      status=Status.ERROR.value).inc()
                _log.warning("model build failed",
                             model=head.request.key.canonical(),
                             error=f"{type(exc).__name__}: {exc}")
                if not head.future.done():
                    response = self._terminal(head.request, Status.ERROR)
                    response.error = f"{type(exc).__name__}: {exc}"
                    head.future.set_result(response)
                continue
            slack = max(0.0, head.request.slack_ms(now))
            flavor = "int8" if head.request.int8 else "float"
            planned = self.cost_model.plan_batch_size(
                model, slack, self.max_batch, flavor=flavor
            )
            items = [head] + self.store.take(lane, planned - 1)

            # Linger (opt-in): let compatible requests arrive to fill the
            # batch, but never longer than the slack that remains on the
            # batch head.  At the default timeout of 0 nothing waits.
            linger_ms = min(self.batch_timeout_ms, slack)
            if linger_ms > 0 and len(items) < planned and not self._closed:
                start = time.monotonic()
                deadline = start + linger_ms / 1000.0
                while len(items) < planned and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    async with self._wakeup:
                        try:
                            await asyncio.wait_for(self._wakeup.wait(),
                                                   remaining)
                        except asyncio.TimeoutError:
                            break
                    items.extend(self.store.take(lane, planned - len(items)))
                self._metrics.histogram(
                    "serve.batch.linger_ms",
                    buckets=(0.5, 1, 2, 5, 10, 20, 50, 100),
                ).observe((time.monotonic() - start) * 1000.0)

            self._metrics.gauge("serve.queue.depth").set(len(self.store))
            batch = Batch(key=head.request.key, items=items,
                          planned_size=planned, int8=head.request.int8)
            self._metrics.counter("serve.batches").inc()
            self._metrics.histogram(
                "serve.batch.size", buckets=(1, 2, 4, 8, 16, 32, 64)
            ).observe(len(batch))
            return batch

    def _reap_expired(self, lane, now: float) -> Optional[Pending]:
        """Pop the lane head, resolving already-dead requests as EXPIRED."""
        while True:
            taken = self.store.take(lane, 1)
            if not taken:
                return None
            pending = taken[0]
            if pending.request.deadline >= now:
                return pending
            self._metrics.counter("serve.requests",
                                  status=Status.EXPIRED.value).inc()
            self._metrics.counter("serve.expired").inc()
            request = pending.request
            if request.arrival_ns:
                # The queue wait still happened; close its span so the
                # trace shows where the expired request's budget went.
                get_tracer().complete(
                    "serve.queue", request.arrival_ns, time.perf_counter_ns(),
                    category="serve", ctx=request.trace,
                    request_id=request.request_id, outcome="expired",
                )
            pending.future.set_result(
                self._terminal(pending.request, Status.EXPIRED)
            )

    async def _model_for(self, pending: Pending) -> RegisteredModel:
        """Resolve the model; a cold build runs off-loop in a thread."""
        key = pending.request.key
        if key in self.registry.keys():
            return self.registry.get(key)
        return await asyncio.to_thread(self.registry.get, key)

    # ------------------------------------------------------------- shutdown

    async def close(self, drain: bool = True) -> None:
        """Stop admitting; optionally cancel whatever is still queued.

        With ``drain=True`` late submissions are SHED with a retry-after
        hint while the queue empties; with ``drain=False`` they (and the
        queue) resolve CANCELLED.
        """
        self._closed = True
        self._draining = drain
        if not drain:
            for pending in self.store.drain_all():
                if not pending.future.done():
                    pending.future.set_result(
                        self._terminal(pending.request, Status.CANCELLED)
                    )
        async with self._wakeup:
            self._wakeup.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def draining(self) -> bool:
        """Closed for admission but still completing queued work."""
        return self._closed and self._draining

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _terminal(
        request: InferenceRequest,
        status: Status,
        retry_after_ms: Optional[float] = None,
    ) -> InferenceResponse:
        now = time.monotonic()
        waited = max(0.0, (now - request.arrival) * 1000.0) if request.arrival else 0.0
        return InferenceResponse(
            request_id=request.request_id,
            key=request.key,
            status=status,
            queue_ms=waited,
            total_ms=waited,
            slo_ms=request.slo_ms or 0.0,
            retry_after_ms=retry_after_ms,
            trace_id=request.trace.trace_id if request.trace else None,
        )

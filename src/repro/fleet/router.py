"""The fleet router: one JSON-lines frontend over N replica servers.

:class:`FleetRouter` speaks exactly the serving wire protocol of
:mod:`repro.serve.transport` — a client cannot tell a router from a
single :class:`~repro.serve.server.InferenceServer` — and forwards every
inference request to one of N replicas:

* **placement** — consistent hash of the request's *lane* (ModelKey +
  plan flavor, the batcher's coalescing key) over the
  :class:`~repro.fleet.placement.HashRing`, so each model's compiled
  plans and cost-model calibration warm exactly one replica;
* **least-loaded fallback** — when the primary is saturated (outstanding
  forwards above ``spill_outstanding``) or unusable, the request spills
  to the least-loaded usable replica; ring order breaks ties so spills
  are sticky too;
* **rerouting** — a transport failure against a replica demotes it
  immediately (:class:`~repro.fleet.health.ReplicaHealth`) and the
  request is retried on the next candidate; the health probe loop
  resurrects replicas that answer again;
* **replica-aware shedding** — a replica's SHED is retried on the next
  candidate; when every candidate sheds (or none is usable) the router
  sheds at its own level with a ``retry_after_ms`` aggregated from the
  replicas' hints (their minimum — the soonest any backend expects
  capacity);
* **slow-replica detection** — each probe pass compares every usable
  replica's forward-latency EWMA against the robust fleet median; a
  replica a configured factor above it for ``slow_windows`` consecutive
  windows is a *gray failure* (alive, probe-healthy, many times slow)
  and enters ``slow``: ordered last in every candidate list and covered
  by hedging (docs/robustness.md);
* **hedged requests** — for a first-attempt forward with deadline slack,
  a backup copy fires to the next ring candidate once the primary has
  been in flight longer than the p95 of recent forwards; the first
  answer wins, the loser is cancelled (``op: cancel``, best-effort), and
  only the winner's reply reaches the client — responses stay exactly-
  once per request id by construction.  Fired hedges are capped at
  ``hedge_rate_cap`` of routed requests (a SLOW primary bypasses the
  cap: that is the case hedging exists for);
* **deadline propagation** — the wire ``deadline_ms`` budget is
  re-stamped on every forward with the router's own elapsed time
  subtracted, so replicas can expire stale (or hedge-duplicated) work at
  admission instead of wasting batch slots on it;
* **trace propagation** — the router joins the client's
  :class:`~repro.obs.context.SpanContext` and forwards its own, so a
  traced request renders as ``client.request → router.request →
  router.forward → transport.request → serve.admit → ...`` chains.

Control ops: ``health`` answers the *fleet* view (router readiness plus
per-replica states), ``metrics`` aggregates every usable replica's
telemetry next to the router's own, ``fleet`` returns the router-side
per-replica accounting without touching the network, and ``ping`` stays
a pure round-trip.  The router keeps no model state — replicas are
unaware of the fleet and can be plain ``repro serve`` processes.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Tuple

from ..faults import should_fire
from ..obs import get_logger, get_registry, get_tracer, render_exposition
from ..obs.context import SpanContext
from ..obs.stats import percentile
from ..serve.request import InferenceRequest, Status
from ..serve.transport import (
    MAX_LINE_BYTES,
    RemoteClient,
    _read_line,
    request_from_wire,
)
from .health import ReplicaEndpoint, ReplicaHealth, ReplicaState
from .placement import HashRing

__all__ = ["RouterConfig", "ReplicaLink", "FleetRouter"]

_log = get_logger("fleet.router")

#: EWMA smoothing for the per-replica observed forward latency.
_LATENCY_ALPHA = 0.2


@dataclass
class RouterConfig:
    """Routing knobs (CLI flags on ``repro fleet`` map onto these)."""

    seed: int = 0                    #: ring seed (placement determinism)
    vnodes: int = 64                 #: ring virtual nodes per replica
    max_attempts: int = 3            #: distinct replicas tried per request
    spill_outstanding: int = 32      #: primary backlog that triggers spill
    forward_timeout_s: float = 30.0  #: per-attempt replica timeout
    probe_interval_s: float = 0.25   #: health probe cadence
    probe_fail_threshold: int = 2    #: probe failures before ``down``
    shed_retry_floor_ms: float = 25.0  #: retry hint when no replica gave one

    # Hedged requests (docs/robustness.md): a first-attempt forward with
    # deadline slack gets a backup fired to the next candidate after the
    # p95 of recent forward latencies (never below ``hedge_floor_ms``);
    # first answer wins, the loser is cancelled.  Hedging stays off until
    # ``hedge_min_samples`` forwards have been observed (no meaningful
    # p95 before that) and fired hedges are capped at ``hedge_rate_cap``
    # of routed requests — except when the primary is already SLOW.
    hedge: bool = True               #: fire backup requests at all
    hedge_rate_cap: float = 0.05     #: max fired hedges / routed requests
    hedge_floor_ms: float = 5.0      #: minimum hedge delay
    hedge_min_samples: int = 16      #: forwards observed before hedging
    hedge_history: int = 256         #: forward-latency window for the p95

    # Slow-replica (gray-failure) detection: a usable replica whose
    # forward EWMA exceeds ``max(slow_min_ms, slow_factor * median)`` of
    # the usable fleet for ``slow_windows`` consecutive probe windows is
    # demoted to SLOW; the same count of clean windows recovers it.
    slow_factor: float = 4.0         #: outlier bound vs. fleet median EWMA
    slow_windows: int = 3            #: consecutive windows before SLOW
    slow_min_ms: float = 5.0         #: absolute floor on the outlier bound

    #: Ring-preference depth used when warming a new replica: it
    #: pre-compiles the lanes it is primary *or* fallback for
    #: (:func:`repro.fleet.warmup.assigned_lanes`).
    warm_depth: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.spill_outstanding < 1:
            raise ValueError("spill_outstanding must be >= 1")
        if not 0.0 <= self.hedge_rate_cap <= 1.0:
            raise ValueError("hedge_rate_cap must be in [0, 1]")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.hedge_history < self.hedge_min_samples:
            raise ValueError("hedge_history must be >= hedge_min_samples")
        if self.slow_factor <= 1.0:
            raise ValueError("slow_factor must be > 1")
        if self.slow_windows < 1:
            raise ValueError("slow_windows must be >= 1")
        if self.warm_depth < 1:
            raise ValueError("warm_depth must be >= 1")


class ReplicaLink:
    """Router-side connection + accounting for one replica."""

    def __init__(self, endpoint: ReplicaEndpoint, config: RouterConfig) -> None:
        self.endpoint = endpoint
        self.health = ReplicaHealth(
            endpoint.replica_id,
            probe_fail_threshold=config.probe_fail_threshold,
            slow_windows=config.slow_windows,
        )
        # Router-level reroute is the retry mechanism: the per-link client
        # fails fast (retries=0) so a dead replica costs one timeout, not
        # a backoff loop against a corpse.
        self.client = RemoteClient(
            endpoint.host, endpoint.port,
            timeout_s=config.forward_timeout_s, retries=0,
            span_name="router.forward",
        )
        self.outstanding = 0      #: forwards currently in flight
        self.ok = 0               #: answered forwards (any terminal status)
        self.sheds = 0            #: SHED answers from this replica
        self.failures = 0         #: transport failures against this replica
        self.ewma_ms = 0.0        #: observed forward latency
        self.window_forwards = 0  #: forwards landed since the last probe pass
        self.last_health: dict = {}

    @property
    def replica_id(self) -> str:
        return self.endpoint.replica_id

    def observe_latency(self, ms: float) -> None:
        self.ewma_ms = (ms if self.ewma_ms == 0.0
                        else self.ewma_ms + _LATENCY_ALPHA * (ms - self.ewma_ms))

    def view(self) -> dict:
        """Router-side accounting for the ``fleet`` op and ``repro top``."""
        return {
            "replica": self.replica_id,
            "address": self.endpoint.address(),
            "state": self.health.state.value,
            "outstanding": self.outstanding,
            "answered": self.ok,
            "sheds": self.sheds,
            "failures": self.failures,
            "ewma_ms": round(self.ewma_ms, 3),
            "queue_depth": self.last_health.get("queue_depth"),
            "retry_after_ms": self.health.last_retry_after_ms,
        }

    async def close(self) -> None:
        await self.client.close()


class FleetRouter:
    """Consistent-hash frontend spreading one wire protocol over N replicas."""

    def __init__(
        self,
        endpoints: List[ReplicaEndpoint],
        config: Optional[RouterConfig] = None,
    ) -> None:
        self.config = config or RouterConfig()
        self.ring = HashRing(vnodes=self.config.vnodes, seed=self.config.seed)
        self._links: Dict[str, ReplicaLink] = {}
        self._tcp: Optional[asyncio.AbstractServer] = None
        self._probe_task: Optional[asyncio.Task] = None
        self._started = False
        self._metrics = get_registry()
        # Hedging state: recent forward latencies (fleet-wide) derive the
        # hedge delay; routed/fired counts enforce the rate cap.  Reaped
        # hedge losers stay out of the delay window (see hedge_delay_ms).
        self._forward_ms: Deque[float] = deque(maxlen=self.config.hedge_history)
        self._routed = 0
        self._hedges_fired = 0
        self._reap_tasks: set = set()
        self._reaped: set = set()
        for endpoint in endpoints:
            self.add_replica(endpoint)

    # ------------------------------------------------------------ membership

    @property
    def links(self) -> Dict[str, ReplicaLink]:
        return self._links

    def add_replica(self, endpoint: ReplicaEndpoint) -> ReplicaLink:
        """Register a replica (autoscaler scale-up path); idempotent."""
        link = self._links.get(endpoint.replica_id)
        if link is not None:
            return link
        link = ReplicaLink(endpoint, self.config)
        self._links[endpoint.replica_id] = link
        self.ring.add(endpoint.replica_id)
        self._publish_membership()
        _log.info("replica registered", replica=endpoint.replica_id,
                  address=endpoint.address())
        return link

    async def remove_replica(self, replica_id: str) -> None:
        """Forget a replica (autoscaler scale-down / permanent failure)."""
        link = self._links.pop(replica_id, None)
        self.ring.remove(replica_id)
        self._publish_membership()
        if link is not None:
            await link.close()
            _log.info("replica removed", replica=replica_id)

    def mark_draining(self, replica_id: str) -> None:
        """Stop placing new lanes on a replica about to leave."""
        link = self._links.get(replica_id)
        if link is not None:
            link.health.mark_draining()
            self.ring.remove(replica_id)
            self._publish_membership()

    def _publish_membership(self) -> None:
        usable = sum(1 for l in self._links.values() if l.health.usable)
        self._metrics.gauge("fleet.replicas").set(float(len(self._links)))
        self._metrics.gauge("fleet.replicas_usable").set(float(usable))

    def _usable(self) -> List[ReplicaLink]:
        return [l for l in self._links.values() if l.health.usable]

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> "FleetRouter":
        if self._started:
            return self
        self._tcp = await asyncio.start_server(self._handle_connection,
                                               host, port)
        # Synchronous first probe: replicas register as STARTING (not
        # routable — the warm-up gate), so traffic arriving before the
        # first probe pass would shed against a fleet of warm replicas.
        await self.probe_once()
        self._probe_task = asyncio.create_task(self._probe_loop())
        self._started = True
        _log.info("router listening", host=host, port=self.port,
                  replicas=len(self._links))
        return self

    @property
    def port(self) -> Optional[int]:
        if self._tcp is None or not self._tcp.sockets:
            return None
        return self._tcp.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        # Hedge losers still being reaped: let their cancel round-trips
        # finish (bounded by the per-link timeout) before closing links.
        if self._reap_tasks:
            await asyncio.gather(*list(self._reap_tasks),
                                 return_exceptions=True)
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        for link in self._links.values():
            await link.close()
        _log.info("router stopped")

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # ----------------------------------------------------------- health loop

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            await self.probe_once()

    async def probe_once(self) -> None:
        """One active health pass over every replica (also used by tests)."""
        async def probe(link: ReplicaLink) -> None:
            if link.health.state is ReplicaState.DRAINING:
                return
            try:
                payload = await asyncio.wait_for(
                    link.client.health(),
                    timeout=max(0.1, self.config.probe_interval_s * 4),
                )
            except (ConnectionError, asyncio.TimeoutError, OSError,
                    RuntimeError):
                was_usable = link.health.usable
                if link.health.record_probe(False) and was_usable:
                    self.ring.remove(link.replica_id)
                self._publish_membership()
                return
            link.last_health = payload
            # A warm-gated replica answers probes with ``warming: true``
            # while it pre-compiles its lanes: alive, but it must hold
            # STARTING (unroutable) — not be mistaken for draining.
            warming = bool(payload.get("warming"))
            draining = bool(payload.get("draining")) or (
                not warming and not payload.get("ready", True)
            )
            was_usable = link.health.usable
            link.health.record_probe(True, draining=draining, warming=warming)
            if link.health.usable and not was_usable:
                self.ring.add(link.replica_id)
            elif not link.health.usable and was_usable:
                self.ring.remove(link.replica_id)
            self._publish_membership()

        await asyncio.gather(*(probe(l) for l in list(self._links.values())))
        self._update_latency_windows()

    def _update_latency_windows(self) -> None:
        """One gray-failure pass: EWMA vs. robust peer median, per probe.

        Each replica is judged against ``max(slow_min_ms, slow_factor *
        median-of-its-PEERS)`` — a leave-one-out median over the other
        usable replicas that have served forwards.  Leaving the candidate
        out matters when few replicas carry traffic: with two active
        links, a fleet-wide median averages the outlier with its healthy
        peer and the bound chases the very latency it is supposed to
        catch (a 20×-slow replica in a pair would hide itself forever).
        Transitions carry ``slow_windows`` hysteresis in
        :class:`ReplicaHealth`.
        """
        sampled = [l for l in self._links.values()
                   if l.health.usable and l.ewma_ms > 0.0]
        if len(sampled) < 2:
            for link in self._links.values():
                link.window_forwards = 0
            return  # no peer group to be an outlier of
        self._metrics.gauge("fleet.latency.median_ms").set(
            statistics.median(l.ewma_ms for l in sampled))
        for link in sampled:
            peer_median = statistics.median(
                l.ewma_ms for l in sampled if l is not link)
            bound = max(self.config.slow_min_ms,
                        self.config.slow_factor * peer_median)
            # A window with no fresh forwards says nothing — the EWMA is
            # stale, and judging it would either persist SLOW forever on
            # old data or clear it without evidence.  Skipping leaves the
            # hysteresis streaks untouched; last-resort routing and
            # hedged backups provide the trickle that re-samples a SLOW
            # replica.
            if link.window_forwards == 0:
                continue
            outlier = link.ewma_ms > bound
            if link.health.record_latency_window(
                outlier, severe=link.ewma_ms > 2.0 * bound
            ):
                if link.health.state is ReplicaState.SLOW:
                    self._metrics.counter("fleet.slow_detections").inc()
                    _log.warning("gray failure: replica is a latency outlier",
                                 replica=link.replica_id,
                                 ewma_ms=f"{link.ewma_ms:.1f}",
                                 peer_median_ms=f"{peer_median:.1f}")
        for link in self._links.values():
            link.window_forwards = 0

    # --------------------------------------------------------------- routing

    @staticmethod
    def lane(key_canonical: str, int8: bool) -> str:
        """The placement lane: model identity plus plan flavor."""
        return f"{key_canonical}|int8" if int8 else key_canonical

    def candidates(self, lane: str) -> List[ReplicaLink]:
        """Forward order for one lane: primary, then fallbacks.

        Ring preference gives the sticky primary and deterministic
        fallback order; the least-loaded usable replica is promoted to
        the front when the primary's backlog crosses the spill bound,
        and the saturated primary drops to the back: it must not become
        the next attempt or the hedge backup.  A replica the probe loop
        has taken off the ring can still appear usable for one pass
        (passive demotion races the probe) — filter on health, not ring
        membership.
        """
        order = [
            self._links[rid]
            for rid in self.ring.preference(lane)
            if rid in self._links and self._links[rid].health.usable
        ]
        # Draining/downed replicas are off the ring; pick up any usable
        # replica the ring does not know yet (just-resurrected).
        for link in self._usable():
            if link not in order:
                order.append(link)
        if not order:
            return []
        # Gray failures route last: a SLOW replica answers — eventually —
        # so it stays a valid last resort, but every healthy replica
        # outranks it (stable sort preserves ring order within each tier).
        order.sort(key=lambda l: l.health.state is ReplicaState.SLOW)
        spill = min(
            order[1:],
            key=lambda l: (l.health.state is ReplicaState.SLOW,
                           l.outstanding, l.replica_id),
            default=None,
        )
        if (spill is not None
                and order[0].outstanding >= self.config.spill_outstanding
                and spill.outstanding < order[0].outstanding):
            self._metrics.counter("fleet.spills").inc()
            order.remove(spill)
            order = [spill] + order[1:] + order[:1]
        return order[: self.config.max_attempts]

    async def _forward(
        self,
        link: ReplicaLink,
        request: InferenceRequest,
        envelope: dict,
        received: float,
        budget0: Optional[float],
    ) -> dict:
        """One forward attempt against one replica.

        Owns all per-link accounting (outstanding, EWMA, health) and the
        ``fleet.forward`` fault point (tagged with the replica id, so a
        chaos plan can stall exactly one replica's hop — the gray-failure
        drill).  Re-stamps the wire deadline budget with the router's own
        elapsed time subtracted.  Transport errors demote the replica and
        propagate to the caller's reroute loop.
        """
        link.outstanding += 1
        start = time.perf_counter()
        try:
            spec = should_fire("fleet.forward", tag=link.replica_id)
            if spec is not None:
                if spec.kind in ("delay", "stall"):
                    # The gray failure: this hop goes quiet for delay_ms
                    # without blocking any other forward on the loop.
                    await asyncio.sleep(spec.delay_ms / 1000.0)
                else:  # "error" / "kill": the hop dies as a transport error
                    raise ConnectionError("injected fleet.forward fault")
            if budget0 is not None:
                elapsed = (time.perf_counter() - received) * 1000.0
                request = replace(request, deadline_ms=budget0 - elapsed)
            reply = await link.client.request(
                request,
                return_output=bool(envelope.get("return_output")),
                timings=request.want_timings,
            )
        except (ConnectionError, asyncio.TimeoutError, OSError, RuntimeError):
            link.failures += 1
            if link.health.record_forward_failure():
                self.ring.remove(link.replica_id)
                self._publish_membership()
            raise
        finally:
            link.outstanding -= 1
        ms = (time.perf_counter() - start) * 1000.0
        link.ok += 1
        link.observe_latency(ms)
        link.window_forwards += 1
        if asyncio.current_task() not in self._reaped:
            self._forward_ms.append(ms)
        link.health.record_forward_ok()
        return reply

    # --------------------------------------------------------------- hedging

    def hedge_delay_ms(self) -> float:
        """How long the primary may be in flight before the backup fires.

        The p95 of recent forwards (fleet-wide): ~5% of healthy requests
        would hedge naturally, which is what the rate cap is calibrated
        to, while a gray-slow primary crosses it almost surely.  The
        window holds forwards whose answer was used or that lost no race:
        a reaped hedge loser's completion (a stalled primary landing
        long after its backup won, or a cancelled copy) says nothing
        about how long an answer takes.  Clamped from above at
        ``slow_factor × p50`` — once a gray replica's unhedged stalled
        completions pollute the window, the raw p95 collapses toward the
        stall itself and a p95-delayed hedge would wait out the very
        latency it exists to cut; anything beyond the slow bound is by
        definition an outlier, so there is no point waiting longer than
        that before racing a backup.  Floored at
        ``hedge_floor_ms`` so microsecond-fast fleets do not hedge on
        scheduler jitter.  Infinite until enough samples exist.
        """
        if len(self._forward_ms) < self.config.hedge_min_samples:
            return float("inf")
        window = sorted(self._forward_ms)
        p95 = percentile(window, 95.0)
        p50 = percentile(window, 50.0)
        return max(self.config.hedge_floor_ms,
                   min(p95, self.config.slow_factor * p50))

    def _hedge_allowed(self, primary: ReplicaLink) -> bool:
        """May this first attempt race a backup if the primary dawdles?"""
        if not self.config.hedge:
            return False
        if len(self._forward_ms) < self.config.hedge_min_samples:
            return False
        if primary.health.state is ReplicaState.SLOW:
            # A known-slow primary is the case hedging exists for: the
            # rate cap must not strand its lanes behind a 20× hop.
            return True
        return (self._hedges_fired
                < self.config.hedge_rate_cap * max(1, self._routed))

    def _reap_loser(self, task: "asyncio.Task", link: ReplicaLink,
                    request_id: int) -> None:
        """Cancel + drain a hedge loser off the request path.

        Best-effort ``op: cancel`` frees the loser's queue slot if it is
        still queued; the awaited task consumes the eventual reply (or
        transport error) so nothing leaks.  The client never sees the
        loser — exactly-once responses hold regardless of what it says.
        """
        async def reap() -> None:
            try:
                await link.client.cancel(request_id)
            except (ConnectionError, asyncio.TimeoutError, OSError,
                    RuntimeError):
                pass
            try:
                await task
            except (ConnectionError, asyncio.TimeoutError, OSError,
                    RuntimeError):
                pass

        self._metrics.counter("fleet.hedge_cancels").inc()
        self._reaped.add(task)
        task.add_done_callback(self._reaped.discard)
        reaper = asyncio.create_task(reap())
        self._reap_tasks.add(reaper)
        reaper.add_done_callback(self._reap_tasks.discard)

    async def _forward_hedged(
        self,
        request: InferenceRequest,
        envelope: dict,
        primary: ReplicaLink,
        backup: ReplicaLink,
        received: float,
        budget0: Optional[float],
    ) -> Tuple[Optional[dict], Optional[ReplicaLink], bool]:
        """Race a backup against a dawdling primary; first answer wins.

        Returns ``(reply, served_link, hedge_fired)``.  ``reply`` is
        ``None`` when every attempt failed as a transport error (caller
        keeps rerouting).  When the hedge did not fire (primary answered
        or failed within the delay) the caller treats the outcome as a
        plain single attempt.
        """
        delay_s = self.hedge_delay_ms() / 1000.0
        primary_task = asyncio.ensure_future(
            self._forward(primary, request, envelope, received, budget0)
        )
        try:
            reply = await asyncio.wait_for(asyncio.shield(primary_task),
                                           delay_s)
            return reply, primary, False
        except asyncio.TimeoutError:
            if primary_task.done():
                # The primary settled as the delay expired: either it
                # answered (keep the answer) or the *forward's own*
                # timeout fired (TimeoutError is ambiguous between the
                # two) — a plain failure: reroute, no hedge.
                if primary_task.exception() is None:
                    return primary_task.result(), primary, False
                return None, None, False
        except (ConnectionError, OSError, RuntimeError):
            return None, None, False

        if budget0 is not None:
            remaining = budget0 - (time.perf_counter() - received) * 1000.0
            if remaining <= 0.0:
                # No deadline slack left to buy anything with: riding out
                # the primary is strictly better than doubling dead work.
                try:
                    return await primary_task, primary, False
                except (ConnectionError, asyncio.TimeoutError, OSError,
                        RuntimeError):
                    return None, None, False

        # The hedge fires: same request id on purpose — the replicas'
        # admission dedupe/cancel key and the exactly-once guarantee both
        # hang off it.
        backup_task = asyncio.ensure_future(
            self._forward(backup, replace(request), envelope, received,
                          budget0)
        )
        self._hedges_fired += 1
        self._metrics.counter("fleet.hedges").inc()
        _log.debug("hedge fired", request_id=request.request_id,
                   primary=primary.replica_id, backup=backup.replica_id,
                   delay_ms=f"{delay_s * 1000.0:.1f}")

        pending = {primary_task, backup_task}
        winner: Optional["asyncio.Task"] = None
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            # Prefer the primary on a photo finish (deterministic pick;
            # its reply is never staler than the backup's).
            for task in (primary_task, backup_task):
                if task in done and task.exception() is None \
                        and winner is None:
                    winner = task
        if winner is None:
            # Both failed.  Still a fired hedge that did not win:
            # fleet.hedges == hedge_wins + hedge_losses stays an identity.
            self._metrics.counter("fleet.hedge_losses").inc()
            return None, None, True
        if winner is backup_task:
            self._metrics.counter("fleet.hedge_wins").inc()
            loser_task, loser_link = primary_task, primary
        else:
            self._metrics.counter("fleet.hedge_losses").inc()
            loser_task, loser_link = backup_task, backup
        if not loser_task.done():
            self._reap_loser(loser_task, loser_link, request.request_id)
        return (winner.result(),
                backup if winner is backup_task else primary,
                True)

    async def _route_request(self, payload: dict, send) -> None:
        try:
            request, envelope = request_from_wire(payload)
        except (ValueError, KeyError, TypeError) as exc:
            self._metrics.counter("fleet.router.bad_requests").inc()
            await send({"id": payload.get("id"), "status": "error",
                        "error": f"bad request: {exc}"})
            return
        received = time.perf_counter()
        budget0 = request.deadline_ms  # client budget unspent at this hop

        with get_tracer().span(
            "router.request", category="fleet",
            ctx=SpanContext.from_wire(payload.get("trace")),
            new_trace=payload.get("trace") is None,
            request_id=request.request_id, model=request.key.canonical(),
        ) as span:
            if span.context is not None:
                request.trace = span.context
            lane = self.lane(request.key.canonical(), request.int8)
            order = self.candidates(lane)
            span.set(lane=lane, candidates=len(order))
            self._routed += 1

            reply: Optional[dict] = None
            served: Optional[ReplicaLink] = None
            shed_hints: List[float] = []
            attempts = 0
            hedged = False
            index = 0
            while index < len(order):
                link = order[index]
                backup = order[index + 1] if index + 1 < len(order) else None
                if index == 0 and backup is not None \
                        and self._hedge_allowed(link):
                    reply, served, fired = await self._forward_hedged(
                        request, envelope, link, backup, received, budget0)
                    hedged = hedged or fired
                    consumed = 2 if fired else 1
                    attempts += consumed
                    index += consumed
                else:
                    attempts += 1
                    index += 1
                    try:
                        reply = await self._forward(link, request, envelope,
                                                    received, budget0)
                        served = link
                    except (ConnectionError, asyncio.TimeoutError, OSError,
                            RuntimeError) as exc:
                        _log.warning("forward failed; rerouting",
                                     replica=link.replica_id, lane=lane,
                                     error=f"{type(exc).__name__}: {exc}")
                        reply = None
                if reply is None:
                    self._metrics.counter("fleet.reroutes").inc()
                    continue
                if reply.get("status") == Status.SHED.value:
                    assert served is not None
                    served.sheds += 1
                    hint = reply.get("retry_after_ms")
                    if hint is not None:
                        served.health.last_retry_after_ms = float(hint)
                        shed_hints.append(float(hint))
                    # Replica-aware shedding: one backend being full is
                    # not fleet overload — try the next candidate, and
                    # when ALL of them shed, answer with the router-level
                    # aggregate (min of this request's hints), not
                    # whichever hint the last replica happened to return.
                    if index < len(order):
                        self._metrics.counter("fleet.shed_retries").inc()
                    reply = None
                    served = None
                    continue
                break

            if reply is None:
                retry_after = self._aggregate_retry_after(shed_hints)
                self._metrics.counter("fleet.router.requests",
                                      status=Status.SHED.value).inc()
                self._metrics.counter("fleet.router.sheds").inc()
                span.set(outcome="shed", attempts=attempts)
                await send({
                    "id": envelope.get("id"),
                    "request_id": request.request_id,
                    "model": request.key.canonical(),
                    "status": Status.SHED.value,
                    "error": ("no usable replica" if not order
                              else "all replicas shedding"),
                    "retry_after_ms": round(retry_after, 3),
                    "router_shed": True,
                    **({"trace_id": span.context.trace_id}
                       if span.context is not None else {}),
                })
                return

            assert served is not None
            reply = dict(reply)
            reply["id"] = envelope.get("id")
            reply["replica"] = served.replica_id
            rerouted = attempts - (2 if hedged else 1)
            if rerouted > 0:
                reply["rerouted"] = rerouted
            if hedged:
                reply["hedged"] = True
            self._metrics.counter(
                "fleet.router.requests", status=str(reply.get("status"))
            ).inc()
            span.set(outcome=str(reply.get("status")),
                     replica=reply["replica"], attempts=attempts,
                     hedged=hedged)
            await send(reply)

    def _aggregate_retry_after(self, this_request_hints: List[float]) -> float:
        """The router-level SHED hint: soonest any backend expects room.

        Prefers the hints returned *on this request*; falls back to the
        last hints seen on any usable replica, then to a floor derived
        from the probe cadence (a downed replica is rediscovered within
        one probe interval).
        """
        if this_request_hints:
            return min(this_request_hints)
        seen = [l.health.last_retry_after_ms for l in self._links.values()
                if l.health.last_retry_after_ms is not None]
        if seen:
            return min(seen)
        return max(self.config.shed_retry_floor_ms,
                   self.config.probe_interval_s * 1000.0)

    # ------------------------------------------------------------- fleet ops

    def fleet_view(self) -> dict:
        """Router-side per-replica accounting (the ``fleet`` wire op)."""
        links = sorted(self._links.values(), key=lambda l: l.replica_id)
        delay = self.hedge_delay_ms()
        return {
            "role": "router",
            "ready": self._started,
            "replicas": [link.view() for link in links],
            "usable": sum(1 for l in links if l.health.usable),
            "total": len(links),
            "ring": {"vnodes": self.config.vnodes, "seed": self.config.seed,
                     "members": self.ring.replicas},
            "hedging": {
                "enabled": self.config.hedge,
                "fired": self._hedges_fired,
                "routed": self._routed,
                "delay_ms": (None if delay == float("inf")
                             else round(delay, 3)),
            },
        }

    def health(self) -> dict:
        """Fleet liveness: ready iff the router can place a request."""
        view = self.fleet_view()
        return {
            "status": "ok",
            "ready": self._started and view["usable"] > 0,
            "role": "router",
            "draining": False,
            "queue_depth": sum(l.outstanding for l in self._links.values()),
            "replicas": {l.replica_id: l.health.state.value
                         for l in self._links.values()},
            "usable": view["usable"],
            "total": view["total"],
        }

    async def telemetry_payload(self) -> dict:
        """Fleet telemetry: router view + every usable replica's own."""
        links = sorted(self._usable(), key=lambda l: l.replica_id)

        async def scrape(link: ReplicaLink) -> Optional[dict]:
            try:
                reply = await asyncio.wait_for(link.client.metrics(),
                                               timeout=5.0)
                return reply.get("telemetry")
            except (ConnectionError, asyncio.TimeoutError, OSError,
                    RuntimeError):
                return None

        scraped = await asyncio.gather(*(scrape(l) for l in links))
        return {
            "fleet": self.fleet_view(),
            "replicas": {
                link.replica_id: telemetry
                for link, telemetry in zip(links, scraped)
            },
        }

    # ------------------------------------------------------------ connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        self._metrics.counter("fleet.router.connections").inc()
        write_lock = asyncio.Lock()
        tasks = set()

        async def send(reply: dict) -> None:
            import json

            async with write_lock:
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()

        async def respond(line: bytes) -> None:
            import json

            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError(
                        f"expected an object, got {type(payload).__name__}")
            except ValueError as exc:
                self._metrics.counter("fleet.router.bad_requests").inc()
                await send({"status": "error",
                            "error": f"bad request: {exc}"})
                return
            op = payload.get("op")
            if op == "health":
                await send({"id": payload.get("id"), "op": "health",
                            **self.health()})
                return
            if op == "ping":
                await send({"id": payload.get("id"), "op": "pong"})
                return
            if op == "fleet":
                await send({"id": payload.get("id"), "op": "fleet",
                            **self.fleet_view()})
                return
            if op == "metrics":
                await send({"id": payload.get("id"), "op": "metrics",
                            "exposition": render_exposition(),
                            "telemetry": await self.telemetry_payload()})
                return
            await self._route_request(payload, send)

        buffer = bytearray()
        try:
            while True:
                try:
                    line = await _read_line(reader, buffer, MAX_LINE_BYTES)
                except ValueError as exc:
                    self._metrics.counter("fleet.router.bad_requests").inc()
                    await send({"status": "error",
                                "error": f"bad request: {exc}"})
                    continue
                if line is None:
                    break
                if not line:
                    continue
                task = asyncio.create_task(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            _log.debug("router connection closed", peer=str(peer))

"""JSON-lines TCP transport: a network front-end for the server.

Wire format: newline-delimited JSON, one object per request/response.
Responses carry the client's ``id`` echo and may complete out of order
(dynamic batching reorders freely) — clients correlate by ``id``.

Request fields (all optional except ``net``)::

    {"id": 7, "net": "mobilenet_v1", "variant": "half", "resolution": 64,
     "seed": 0, "input_seed": 123, "slo_ms": 80, "priority": 0,
     "int8": false, "return_output": false}

Inputs travel as seeds, not tensors — a request is a few dozen bytes and
fully reproducible.  ``return_output: true`` inlines the output tensor as
a nested list (debugging; the digest is always included).

Two control ops bypass the scheduler entirely:

* ``{"op": "health"}`` → the server's liveness/readiness snapshot
  (:meth:`~repro.serve.server.InferenceServer.health`), answered even
  while the queue is saturated or the server is draining;
* ``{"op": "ping"}`` → ``{"op": "pong"}``, a pure transport round-trip.

Robustness (``docs/robustness.md``): a malformed or oversized line gets a
structured error reply and the connection **stays open** — one bad frame
must not kill the client's other in-flight requests.  Lines longer than
``MAX_LINE_BYTES`` are discarded without buffering them whole.  The
:class:`RemoteClient` side is symmetric: unparseable reply lines are
counted and skipped, and ``retries``/``timeout_s`` turn transient
failures (disconnects, timeouts) into bounded, jittered reconnect-and-
resend loops.  The ``transport.disconnect`` / ``transport.garbage`` fault
points of :mod:`repro.faults` are injected here.

This is deliberately framework-free (stdlib ``asyncio`` streams): the
reproduction's no-new-dependencies rule applies to the serving layer too.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple

from ..faults import should_fire
from ..obs import get_logger, get_registry, get_tracer, render_exposition
from ..obs.context import SpanContext
from .request import InferenceRequest, InferenceResponse, ModelKey, Status
from .resilience import RetryPolicy
from .server import InferenceServer

__all__ = [
    "MAX_LINE_BYTES",
    "request_from_wire",
    "response_to_wire",
    "serve_tcp",
    "RemoteClient",
]

_log = get_logger("serve.transport")

#: Hard cap on one wire line (request or response).  Requests are tiny
#: (seeds, not tensors); anything near this size is garbage or abuse.
MAX_LINE_BYTES = 1 << 20

_READ_CHUNK = 1 << 16


def request_from_wire(payload: dict) -> Tuple[InferenceRequest, dict]:
    """Decode one wire object → (request, client envelope)."""
    key = ModelKey(
        network=payload["net"],
        variant=payload.get("variant"),
        resolution=int(payload.get("resolution", 64)),
        seed=int(payload.get("seed", 0)),
    )
    fields = dict(
        key=key,
        input_seed=int(payload.get("input_seed", 0)),
        slo_ms=payload.get("slo_ms"),
        priority=int(payload.get("priority", 0)),
        int8=bool(payload.get("int8", False)),
        trace=SpanContext.from_wire(payload.get("trace")),
        want_timings=bool(payload.get("timings", False)),
    )
    # Cross-hop identity and deadline budget: a router forwarding (or
    # hedging) a client's request preserves the originating request id —
    # the dedupe/cancellation key — and the milliseconds of client
    # deadline still unspent at this hop.
    if payload.get("request_id") is not None:
        fields["request_id"] = int(payload["request_id"])
    if payload.get("deadline_ms") is not None:
        fields["deadline_ms"] = float(payload["deadline_ms"])
    request = InferenceRequest(**fields)
    envelope = {
        "id": payload.get("id"),
        "return_output": bool(payload.get("return_output", False)),
    }
    return request, envelope


def response_to_wire(response: InferenceResponse, envelope: dict) -> dict:
    """Encode one response → wire object (outputs only on request)."""
    out = {
        "id": envelope.get("id"),
        "request_id": response.request_id,
        "model": response.key.canonical(),
        "status": response.status.value,
        "digest": response.digest,
        "queue_ms": round(response.queue_ms, 3),
        "execute_ms": round(response.execute_ms, 3),
        "total_ms": round(response.total_ms, 3),
        "simulated_ms": round(response.simulated_ms, 6),
        "batch_size": response.batch_size,
        "slo_ms": response.slo_ms,
        "slo_met": response.slo_met,
    }
    if response.retry_after_ms is not None:
        out["retry_after_ms"] = round(response.retry_after_ms, 3)
    if response.error is not None:
        out["error"] = response.error
    if response.degraded:
        out["degraded"] = True
        out["degraded_reason"] = response.degraded_reason
    if response.trace_id is not None:
        out["trace_id"] = response.trace_id
    if response.timings is not None:
        out["timings"] = response.timings
    if envelope.get("return_output") and response.output is not None:
        out["output"] = response.output.tolist()
    return out


async def _read_line(
    reader: asyncio.StreamReader, buffer: bytearray, max_line: int
) -> Optional[bytes]:
    """Next newline-terminated line, or ``None`` at EOF.

    Unlike ``StreamReader.readline`` this enforces ``max_line`` without
    dying: an overlong line raises ``ValueError`` *once* after discarding
    up to its newline, leaving the stream positioned at the next frame.
    """
    discarding = False
    while True:
        newline = buffer.find(b"\n")
        if newline >= 0:
            line = bytes(buffer[:newline])
            del buffer[: newline + 1]
            if discarding or newline > max_line:
                raise ValueError(f"line exceeded {max_line} bytes")
            return line.strip()
        if len(buffer) > max_line:
            del buffer[:]
            discarding = True  # swallow until the newline, then report
        chunk = await reader.read(_READ_CHUNK)
        if not chunk:
            if discarding:
                raise ValueError(f"line exceeded {max_line} bytes")
            return None
        if not discarding:
            buffer.extend(chunk)
        else:
            newline = chunk.find(b"\n")
            if newline >= 0:
                buffer.extend(chunk[newline + 1:])
                raise ValueError(f"line exceeded {max_line} bytes")


async def _handle_connection(
    server: InferenceServer,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    max_line: int = MAX_LINE_BYTES,
) -> None:
    peer = writer.get_extra_info("peername")
    _log.debug("connection opened", peer=str(peer))
    metrics = get_registry()
    metrics.counter("serve.transport.connections").inc()
    write_lock = asyncio.Lock()
    tasks = set()

    async def send(reply: dict) -> None:
        async with write_lock:
            spec = should_fire("transport.garbage")
            if spec is not None:
                # A corrupt frame ahead of the real reply: clients must
                # skip it and still correlate the good one.
                writer.write(b"\x00{not json]\n")
            writer.write(json.dumps(reply).encode() + b"\n")
            await writer.drain()

    async def respond(line: bytes) -> None:
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise ValueError(f"expected an object, got {type(payload).__name__}")
        except ValueError as exc:
            metrics.counter("serve.transport.bad_lines").inc()
            _log.warning("malformed request line", peer=str(peer),
                         error=str(exc))
            await send({"status": "error", "error": f"bad request: {exc}"})
            return
        op = payload.get("op")
        if op == "health":
            await send({"id": payload.get("id"), "op": "health",
                        **server.health()})
            return
        if op == "ping":
            await send({"id": payload.get("id"), "op": "pong"})
            return
        if op == "metrics":
            # Live telemetry over the same wire: Prometheus-style text
            # plus the derived live/alert view, scheduler-independent so
            # a saturated queue cannot starve the scrape.
            await send({"id": payload.get("id"), "op": "metrics",
                        "exposition": render_exposition(),
                        "telemetry": server.telemetry_payload()})
            return
        if op == "warmup":
            # Warm-up gate: pre-build the named lanes' models and plans
            # before health may report ready (fleet scale-up path).
            try:
                result = await server.warmup(payload.get("lanes"))
            except Exception as exc:
                metrics.counter("serve.transport.bad_lines").inc()
                await send({"id": payload.get("id"), "op": "warmup",
                            "status": "error",
                            "error": f"warmup failed: {exc}"})
                return
            await send({"id": payload.get("id"), "op": "warmup",
                        "ready": server.health()["ready"], **result})
            return
        if op == "cancel":
            # Hedge-loser cancellation, keyed by the originating request
            # id; best-effort (a dispatched request runs to completion).
            try:
                request_id = int(payload["request_id"])
            except (KeyError, TypeError, ValueError) as exc:
                await send({"id": payload.get("id"), "op": "cancel",
                            "status": "error",
                            "error": f"bad cancel: {exc}"})
                return
            await send({"id": payload.get("id"), "op": "cancel",
                        "cancelled": server.cancel_request(request_id)})
            return
        # The transport span joins the client's trace (carried in the
        # wire ``trace`` object) and becomes the server-side parent of
        # the admit/queue/request chain.
        with get_tracer().span(
            "transport.request", category="serve",
            ctx=SpanContext.from_wire(payload.get("trace")),
        ) as tspan:
            try:
                request, envelope = request_from_wire(payload)
            except (ValueError, KeyError, TypeError) as exc:
                metrics.counter("serve.transport.bad_lines").inc()
                await send({"id": payload.get("id"), "status": "error",
                            "error": f"bad request: {exc}"})
                return
            if tspan.context is not None:
                request.trace = tspan.context
            tspan.set(request_id=request.request_id,
                      model=request.key.canonical())
            response = await server.submit(request)
            tspan.set(status=response.status.value)
            await send(response_to_wire(response, envelope))

    buffer = bytearray()
    try:
        while True:
            if should_fire("transport.disconnect") is not None:
                _log.warning("injected disconnect", peer=str(peer))
                break
            try:
                line = await _read_line(reader, buffer, max_line)
            except ValueError as exc:  # oversized line: report, keep going
                metrics.counter("serve.transport.oversized_lines").inc()
                _log.warning("oversized request line", peer=str(peer),
                             error=str(exc))
                await send({"status": "error", "error": f"bad request: {exc}"})
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
        _log.debug("connection closed", peer=str(peer))


async def serve_tcp(
    server: InferenceServer, host: str = "127.0.0.1", port: int = 8707,
    max_line: int = MAX_LINE_BYTES,
) -> asyncio.AbstractServer:
    """Expose an (already started) :class:`InferenceServer` over TCP."""
    tcp = await asyncio.start_server(
        lambda r, w: _handle_connection(server, r, w, max_line), host, port
    )
    addr = tcp.sockets[0].getsockname() if tcp.sockets else (host, port)
    _log.info("listening", host=str(addr[0]), port=addr[1])
    return tcp


class RemoteClient:
    """Async JSON-lines client correlating responses by ``id``.

    With ``retries > 0`` a request that times out or loses its connection
    is re-sent (after a seeded full-jitter backoff, reconnecting if
    needed) up to ``retries`` extra times; ``timeout_s`` bounds each
    attempt.  Defaults keep the legacy fail-fast behavior.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8707,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        backoff_ms: float = 50.0,
        seed: int = 0,
        span_name: str = "client.request",
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        #: Span opened around each request.  End clients keep the default;
        #: the fleet router names its forwarding hop ``router.forward`` so
        #: traces read client → router → replica (docs/fleet.md).
        self.span_name = span_name
        self.retry_policy = RetryPolicy(retries=retries, backoff_ms=backoff_ms,
                                        seed=seed)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: dict = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._conn_lock = asyncio.Lock()
        self._closed = False

    async def connect(self) -> "RemoteClient":
        self._closed = False
        await self._ensure_connected()
        return self

    async def _ensure_connected(self) -> None:
        # One reconnect services every concurrent failed request: without
        # the lock, N in-flight requests losing one connection would race
        # N reconnects, orphaning all but the last reader task.
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return
            await self._teardown()
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            self._reader_task = asyncio.create_task(
                self._read_loop(self._reader)
            )

    async def _teardown(self) -> None:
        # Dropping the connection orphans every reply still in flight:
        # fail those futures so their senders retry on the new connection
        # instead of sitting out their timeout.
        failed = ConnectionError("connection replaced")
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failed)
        self._pending.clear()
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def close(self) -> None:
        self._closed = True
        await self._teardown()

    async def __aenter__(self) -> "RemoteClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        buffer = bytearray()
        while True:
            try:
                line = await _read_line(reader, buffer, MAX_LINE_BYTES)
            except ValueError:
                get_registry().counter("serve.client.bad_lines").inc()
                continue
            except (ConnectionError, OSError):
                # A reset or a failed write (the stream reader inherits
                # the transport's error) ends the connection like EOF.
                line = None
            if line is None:
                failed = ConnectionError("server closed connection")
                for future in self._pending.values():
                    if not future.done():
                        future.set_exception(failed)
                self._pending.clear()
                # Mark the connection dead *now*: a request that raced past
                # _ensure_connected would otherwise write into the dead
                # socket and sit out its whole timeout with no reader left
                # to fail its future.
                if self._writer is not None:
                    self._writer.close()
                return
            if not line:
                continue
            try:
                reply = json.loads(line)
                if not isinstance(reply, dict):
                    raise ValueError("reply is not an object")
            except ValueError:
                # A garbage frame must not kill correlation for the
                # replies behind it: count it and read on.
                get_registry().counter("serve.client.bad_lines").inc()
                _log.debug("skipping unparseable reply line")
                continue
            future = self._pending.pop(reply.get("id"), None)
            if future is not None and not future.done():
                future.set_result(reply)

    async def _send_payload(self, payload: dict) -> dict:
        wire_id = payload["id"]
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[wire_id] = future
        try:
            async with self._write_lock:
                assert self._writer is not None
                self._writer.write(json.dumps(payload).encode() + b"\n")
                await self._writer.drain()
            if self.timeout_s is None:
                return await future
            return await asyncio.wait_for(future, self.timeout_s)
        finally:
            self._pending.pop(wire_id, None)
            # If the waiter is leaving without consuming the future (a
            # timeout/cancel racing a teardown that failed it), retrieve
            # the exception so asyncio does not log it as orphaned.
            if future.done() and not future.cancelled():
                future.exception()

    async def _roundtrip(self, payload: dict) -> dict:
        """Send with bounded retries; reconnects between attempts."""
        if self._closed:
            raise RuntimeError("client is closed")
        attempts = self.retry_policy.retries + 1
        last_error: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            try:
                await self._ensure_connected()
                return await self._send_payload(payload)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                last_error = exc
                if attempt >= attempts:
                    break
                get_registry().counter("resilience.retries").inc()
                _log.debug("retrying request", id=payload["id"],
                           attempt=attempt,
                           error=f"{type(exc).__name__}: {exc}")
                await asyncio.sleep(self.retry_policy.delay_s(attempt))
        assert last_error is not None
        raise last_error

    async def request(self, request: InferenceRequest,
                      return_output: bool = False,
                      timings: bool = False) -> dict:
        """Send one request; returns the decoded wire response.

        When tracing is enabled the client mints the request's root span
        here and carries its context on the wire, so the server-side
        stages link under one end-to-end trace.  A request that already
        carries a :class:`SpanContext` (a retry, or a router forwarding a
        client's request) *joins* that trace instead of minting a new
        root.  ``timings=True`` asks the server to echo the per-stage
        breakdown on the reply.
        """
        if self._writer is None and self._closed:
            raise RuntimeError("client is not connected")
        self._next_id += 1
        payload = {
            "id": self._next_id,
            "net": request.key.network,
            "variant": request.key.variant,
            "resolution": request.key.resolution,
            "seed": request.key.seed,
            "input_seed": request.input_seed,
            "slo_ms": request.slo_ms,
            "priority": request.priority,
            "request_id": request.request_id,
            "return_output": return_output,
        }
        # Deadline propagation: carry the unspent deadline budget (or, at
        # the originating client, the full SLO) so downstream hops can
        # expire stale work at admission.  Stamped once per request()
        # call — a wire-level retry resends the same budget; the replica
        # restamps arrival, which is the conservative direction.
        budget = (request.deadline_ms if request.deadline_ms is not None
                  else request.slo_ms)
        if budget is not None:
            payload["deadline_ms"] = round(float(budget), 3)
        if request.int8:
            payload["int8"] = True
        if timings or request.want_timings:
            payload["timings"] = True
        with get_tracer().span(
            self.span_name, category="serve", ctx=request.trace,
            new_trace=request.trace is None,
            request_id=request.request_id, model=request.key.canonical(),
        ) as span:
            if span.context is not None:
                payload["trace"] = span.context.to_wire()
                request.trace = span.context
            reply = await self._roundtrip(payload)
            span.set(status=str(reply.get("status")))
            return reply

    async def health(self) -> dict:
        """The server's liveness/readiness snapshot (``op: health``)."""
        self._next_id += 1
        return await self._roundtrip({"id": self._next_id, "op": "health"})

    async def metrics(self) -> dict:
        """The server's live telemetry (``op: metrics``): a Prometheus
        ``exposition`` text block plus the derived ``telemetry`` view."""
        self._next_id += 1
        return await self._roundtrip({"id": self._next_id, "op": "metrics"})

    async def warmup(self, lanes: Optional[list] = None) -> dict:
        """Drive the server's warm-up gate (``op: warmup``).

        ``lanes`` is a list of wire lane specs (``{"net": ..., "variant":
        ..., "resolution": ..., "seed": ..., "int8": ...}``); ``None``
        warms every preloaded model.  Returns the server's warm-up report
        including the post-warm-up ``ready`` flag.
        """
        self._next_id += 1
        payload: dict = {"id": self._next_id, "op": "warmup"}
        if lanes is not None:
            payload["lanes"] = lanes
        return await self._roundtrip(payload)

    async def cancel(self, request_id: int) -> bool:
        """Best-effort cancel of one queued request (``op: cancel``)."""
        self._next_id += 1
        reply = await self._roundtrip(
            {"id": self._next_id, "op": "cancel", "request_id": request_id}
        )
        return bool(reply.get("cancelled"))

    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Loadgen-compatible submit: wire response → InferenceResponse.

        Never raises on transport failure: an exhausted retry budget
        surfaces as an ERROR response, so load generation keeps its
        accounting under chaos.
        """
        try:
            reply = await self.request(request, timings=request.want_timings)
        except (ConnectionError, asyncio.TimeoutError, OSError, RuntimeError) as exc:
            get_registry().counter("serve.client.transport_errors").inc()
            return InferenceResponse(
                request_id=request.request_id,
                key=request.key,
                status=Status.ERROR,
                error=f"transport: {type(exc).__name__}: {exc}",
                slo_ms=request.slo_ms or 0.0,
                trace_id=request.trace.trace_id if request.trace else None,
            )
        return InferenceResponse(
            request_id=reply.get("request_id", request.request_id),
            key=request.key,
            status=Status(reply["status"]),
            digest=reply.get("digest"),
            error=reply.get("error"),
            queue_ms=reply.get("queue_ms", 0.0),
            execute_ms=reply.get("execute_ms", 0.0),
            total_ms=reply.get("total_ms", 0.0),
            simulated_ms=reply.get("simulated_ms", 0.0),
            batch_size=reply.get("batch_size", 0),
            slo_ms=reply.get("slo_ms", 0.0) or 0.0,
            retry_after_ms=reply.get("retry_after_ms"),
            degraded=bool(reply.get("degraded", False)),
            degraded_reason=reply.get("degraded_reason"),
            trace_id=reply.get("trace_id"),
            timings=reply.get("timings"),
        )

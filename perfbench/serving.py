"""The serving workloads: ``serve-closed`` and ``serve-open``.

One process holds everything: the in-process
:class:`~repro.serve.server.InferenceServer` is exposed with
:func:`~repro.serve.transport.serve_tcp`, and load arrives over loopback
through one :class:`~repro.serve.transport.RemoteClient` connection,
with virtual users as asyncio tasks.  The load loops live here, not in
:mod:`repro.serve.loadgen`, so that a change to the program cannot
change how it is measured.

Set-up runs from server construction to the end of a warm-up phase that
fills every lane at every batch size from 1 to ``max_batch``:
``InferenceServer.warmup()`` compiles plans only at batch {1,
``max_batch``} and leaves per-request int8 lanes cold, so the phase also
compiles the int8 plans and prices the cost model at every batch size,
then sends a burst of each size down each lane over the wire.  Compiles
and estimates left for the hot path would otherwise land in the tail.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.ir.counting import count_network
from repro.serve.request import make_input
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.transport import RemoteClient, serve_tcp
from repro.systolic.latency import clear_mapping_cache

from checks import Record
from metrics import peak_rss_mb
from stream import Item, Lane, closed_stream, open_stream, stream_digest


#: The server's deadline budget per request.  Latency limits are judged
#: at the client (``slo_ok_ratio``); a budget well above them means a
#: host stall cannot expire a request, which would make the failure
#: count depend on when the host stalled rather than on the program.
SERVER_DEADLINE_MS = 1000.0


@dataclass(frozen=True)
class ServeSpec:
    """What one serving workload runs."""

    lanes: Tuple[Lane, ...]
    slo_ms: float            #: latency limit of ``slo_ok_ratio``
    users: int = 0           #: closed loop: concurrent virtual users
    rate: float = 0.0        #: open loop: Poisson arrivals per second

    @property
    def closed(self) -> bool:
        return self.users > 0

    def config(self) -> ServeConfig:
        """The server's configuration: defaults plus preload and deadline."""
        keys = list(dict.fromkeys(lane.key() for lane in self.lanes))
        return ServeConfig(preload=keys, slo_ms=SERVER_DEADLINE_MS)

    def stream(self, seed: int, seconds: float) -> List[Item]:
        if self.closed:
            # More than the server can take in ``seconds``; users consume
            # it in order and wrap around.
            return closed_stream(seed, self.lanes, max(64, int(300 * seconds)))
        return open_stream(seed, self.lanes, self.rate, seconds)


SERVE_CLOSED = ServeSpec(
    lanes=(Lane("mobilenet_v3_small", "full", 32),),
    slo_ms=1000.0,
    users=8,
)

SERVE_OPEN = ServeSpec(
    lanes=tuple(Lane(net, variant, 32, int8)
                for net, variant in (("mobilenet_v3_small", "full"),
                                     ("mobilenet_v1", "half"))
                for int8 in (False, True)),
    slo_ms=100.0,
    rate=40.0,
)


#: Deadline of warm-up requests: set-up must not fail on a host stall.
WARMUP_SLO_MS = 10_000.0


class Session:
    """A started server on an ephemeral loopback port plus one client."""

    def __init__(self, server: InferenceServer, tcp, client: RemoteClient):
        self.server, self.tcp, self.client = server, tcp, client

    async def close(self) -> None:
        try:
            await self.client.close()
        finally:
            self.tcp.close()
            await self.tcp.wait_closed()
            await self.server.stop()


async def start_session(spec: ServeSpec) -> Session:
    """Set up: start, expose, connect and warm one server.

    The mapping memo is cleared first so every set-up in a run pays what
    a fresh process would.
    """
    clear_mapping_cache()
    server = InferenceServer(spec.config())
    await server.start()
    tcp = client = None
    try:
        tcp = await serve_tcp(server, port=0)
        client = await RemoteClient(
            port=tcp.sockets[0].getsockname()[1]).connect()
        session = Session(server, tcp, client)
        await _warm(session, spec.lanes)
        return session
    except BaseException:
        if client is not None:
            await client.close()
        if tcp is not None:
            tcp.close()
            await tcp.wait_closed()
        await server.stop()
        raise


async def _warm(session: Session, lanes: Sequence[Lane]) -> None:
    server = session.server
    await server.warmup()
    max_batch = server.config.max_batch

    def compile_all() -> None:
        for lane in lanes:
            model = server.registry.get(lane.key())
            for batch in range(1, max_batch + 1):
                server.cost_model.simulated_ms(model, batch)
                if lane.int8:
                    model.plan_for(batch, flavor="int8")

    await asyncio.to_thread(compile_all)
    for size in range(1, max_batch + 1):
        for index in range(len(lanes)):
            burst = [Item(index, input_seed=size * 1000 + j)
                     for j in range(size)]
            requests = [item.request(lanes) for item in burst]
            for request in requests:
                request.slo_ms = WARMUP_SLO_MS
            replies = await asyncio.gather(*(
                session.client.request(r) for r in requests))
            bad = [r for r in replies if r.get("status") != "ok"]
            if bad:
                raise RuntimeError(f"warm-up request failed: {bad[0]}")


async def _send(client: RemoteClient, record: Record,
                lanes: Sequence[Lane]) -> None:
    item = record.item
    try:
        record.reply = await client.request(item.request(lanes),
                                            return_output=item.return_output)
    except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.perf_counter()


async def closed_loop(client: RemoteClient, lanes: Sequence[Lane],
                      stream: Sequence[Item], users: int,
                      seconds: float) -> List[Record]:
    """``users`` tasks, each sending its next request when the last one
    answered, until ``seconds`` have passed."""
    items = itertools.cycle(stream)
    records: List[Record] = []
    stop_at = time.perf_counter() + seconds

    async def user() -> None:
        while time.perf_counter() < stop_at:
            now = time.perf_counter()
            record = Record(next(items), due=now, sent=now)
            records.append(record)
            await _send(client, record, lanes)

    await asyncio.gather(*(user() for _ in range(users)))
    return records


async def open_loop(client: RemoteClient, lanes: Sequence[Lane],
                    stream: Sequence[Item]) -> List[Record]:
    """Send each request at its due time, whether or not earlier ones
    have answered; latency counts from the due time."""
    records: List[Record] = []
    tasks = []
    start = time.perf_counter()
    try:
        for item in stream:
            due = start + item.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record = Record(item, due=due, sent=time.perf_counter())
            records.append(record)
            tasks.append(asyncio.create_task(_send(client, record, lanes)))
    finally:
        await asyncio.gather(*tasks)
    return records


@dataclass
class Phase:
    """One timed phase: what was sent, and what it cost."""

    records: List[Record]
    elapsed_s: float
    cpu_s: float
    digest: str
    setup_s: List[float] = field(default_factory=list)
    probe: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


async def timed(session: Session, spec: ServeSpec, seed: int,
                seconds: float) -> Phase:
    stream = spec.stream(seed, seconds)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if spec.closed:
        records = await closed_loop(session.client, spec.lanes, stream,
                                    spec.users, seconds)
    else:
        records = await open_loop(session.client, spec.lanes, stream)
    elapsed = time.perf_counter() - wall0
    return Phase(records, elapsed, time.process_time() - cpu0,
                 stream_digest(stream))


async def measure(spec: ServeSpec, seed: int, seconds: float,
                  setups: int = 1, recorder=None) -> Phase:
    """Set up, run one timed phase on that server, then set up again
    ``setups - 1`` times, timing each set-up.  Peak RSS is read before the
    extra set-ups, so it covers one server and its traffic.  With a
    recorder, its phase label follows the run."""
    if recorder is not None:
        recorder.phase = "setup"
    start = time.perf_counter()
    session = await start_session(spec)
    times = [time.perf_counter() - start]
    try:
        if recorder is not None:
            recorder.phase = "timed"
        phase = await timed(session, spec, seed, seconds)
        if recorder is not None:
            recorder.phase = "probe"
            phase.probe = await asyncio.to_thread(
                probe_flavors, session.server, spec.lanes[0], seed)
    finally:
        await session.close()
    phase.peak_rss_mb = peak_rss_mb()
    for _ in range(setups - 1):
        start = time.perf_counter()
        session = await start_session(spec)
        times.append(time.perf_counter() - start)
        await session.close()
    phase.setup_s = times
    return phase


#: InferencePlan.run repetitions per flavor in the probe.
PROBE_RUNS = 20


def probe_flavors(server: InferenceServer, lane: Lane, seed: int) -> dict:
    """Batch-1 plans of every flavor for one lane: their counted MACs and
    arena bytes, and ``PROBE_RUNS`` timed runs each (the flavors a
    workload does not serve get their per-image time from here)."""
    model = server.registry.get(lane.key())
    x = make_input((1,) + tuple(model.input_shape), seed)
    macs = count_network(model.network).total_macs
    out = {}
    for flavor in model.FLAVORS:
        plan = model.plan_for(1, flavor=flavor)
        for _ in range(PROBE_RUNS):
            plan.run(x)
        out[flavor] = {"macs": macs, "arena_bytes": plan.stats.arena_bytes}
    return out

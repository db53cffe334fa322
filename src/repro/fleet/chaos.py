"""Chaos drills: one runner, three scenarios, one report.

A drill spawns a topology, drives the standard deterministic workload
through it while a fault fires, and checks a list of bounds against
what it saw.  A :class:`Scenario` names all three:

* **the fault** — a seeded :class:`~repro.faults.FaultPlan` (specs
  tagged :data:`VICTIM` bind to the replica owning the workload's first
  lane), a raw connection feeding malformed frames, a mid-run crash of
  the victim, and/or a warm-gated scale-up after the workload;
* **the topology** — the replica count and the router config.  Every
  replica is an in-process :class:`~repro.fleet.supervisor.FleetSupervisor`
  server behind a real loopback listener (the same connection handler
  as ``serve_tcp``).  Without a router the single replica is addressed
  directly; with one, every request crosses the router;
* **the bounds** — checked on top of the shared ones every drill keeps:
  the fault fired, zero unhandled errors, ≥ 99 % of non-shed requests
  answered OK, the same-seed replay fingerprint unchanged, and the
  client wall p99 under an optional cap.

The three scenarios are module constants:

* :data:`SERVE` — ``repro loadgen --chaos``: one server takes engine
  errors and delays, a worker crash, a compile failure, garbage frames
  and a client disconnect, while a raw feeder pokes the transport.  The
  server must stay ready, answer every bad frame with a structured
  error, and keep its telemetry snapshot loop alive;
* :data:`KILL` — ``repro loadgen --chaos --fleet N``: the lane owner is
  crashed (connections aborted, queue dropped) once 35 % of the
  requests completed.  Answers must keep flowing after the kill, the
  router must stay ready with N−1 usable replicas, and only the
  victim's lanes may move;
* :data:`GRAY` — ``repro loadgen --gray``: every forward hop to the lane
  owner stalls :data:`STALL_MS`.  The client wall p99 must stay at or
  under half the stall, every request is answered exactly once, the
  victim is detected SLOW, hedges add up, and a warm-gated scale-up
  afterwards serves nothing cold and compiles nothing once its gate
  opened.  The tail bound is stated against the injected fault, not a
  measured healthy baseline: host noise must reach half the stall to
  move the verdict, while without hedging the p99 is the stall itself.

Determinism: the request stream and the fault schedule replay exactly
for a seed; the report carries both fingerprints.  Which in-flight
request a firing lands on may vary with thread interleaving, so the
bounds are aggregates (see :mod:`repro.faults.plan`).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..faults import FaultPlan, FaultSpec, current_injector, install_plan
from ..obs import get_logger, get_registry
from ..obs.stats import percentile
from ..serve.loadgen import (
    LoadReport,
    WorkloadSpec,
    build_requests,
    requests_digest,
    run_workload,
)
from ..serve.server import ServeConfig
from ..serve.transport import MAX_LINE_BYTES, RemoteClient
from .placement import HashRing
from .router import FleetRouter, RouterConfig
from .supervisor import FleetSupervisor
from .warmup import lane_specs, warm_replica

__all__ = [
    "Scenario",
    "DrillReport",
    "SERVE",
    "KILL",
    "GRAY",
    "STALL_MS",
    "VICTIM",
    "run_drill",
]

_log = get_logger("fleet.chaos")

#: Fault-spec tag bound at run time to the replica owning the first lane.
VICTIM = "victim"
#: The gray drill's per-hop stall.  Fixed, so the tail bound (half of it)
#: is a statement about the fault, not about a measured baseline, and
#: long next to the hedged tail: the hedge delay (up to 4 × the forward
#: p50) plus one backup forward.
STALL_MS = 250.0
#: Share of non-shed requests that must be answered OK.
MIN_ANSWERED_RATE = 0.99
#: Completed share of the workload after which the KILL drill crashes
#: the victim.
KILL_FRACTION = 0.35
#: Requests per post-scale-up pass (direct and through the router).
SCALE_UP_REQUESTS = 12
#: Per-attempt client timeout (the router's forward timeout).
CLIENT_TIMEOUT_S = 30.0
#: Client resends after a timeout or a lost connection, given only to a
#: drill that drops client connections itself (``transport.disconnect``):
#: anywhere else a resend would hide a connection the drill broke.
CLIENT_RETRIES = 3

#: Counters whose deltas over the run land in ``DrillReport.observed``.
_COUNTERS = {
    "retries": "resilience.retries",
    "degraded_responses": "resilience.degraded_responses",
    "worker_restarts": "resilience.worker_restarts",
    "requeued": "resilience.requeued",
    "compile_fallbacks": "resilience.compile_fallbacks",
    "breaker_short_circuits": "resilience.breaker_short_circuits",
    "bad_lines": "serve.transport.bad_lines",
    "oversized_lines": "serve.transport.oversized_lines",
    "client_bad_lines": "serve.client.bad_lines",
    "reroutes": "fleet.reroutes",
    "hedges": "fleet.hedges",
    "hedge_wins": "fleet.hedge_wins",
    "hedge_losses": "fleet.hedge_losses",
    "slow_detections": "fleet.slow_detections",
}


#: One bound: a predicate on the report and the message it fails with.
#: Messages are ``str.format``-ed with ``d``, the report, and ``o``, its
#: observations (missing keys read 0); the observation keys are those
#: :func:`run_drill` records.
Bound = Tuple[Callable[["DrillReport"], bool], str]


@dataclass(frozen=True)
class Scenario:
    """One drill: the fault, the topology, and the bounds on top of
    :data:`SHARED_BOUNDS`.  Derive variants with ``dataclasses.replace``."""

    name: str                               #: gauge prefix (``fleet.chaos``)
    faults: Tuple[FaultSpec, ...] = ()      #: the seeded plan's specs
    garbage: bool = False                   #: feed malformed frames alongside
    kill: bool = False                      #: crash the victim mid-run
    scale_up: bool = False                  #: warm-gated scale-up afterwards
    replicas: int = 1
    router: Optional[RouterConfig] = None   #: ``None``: one replica, direct
    bounds: Tuple[Bound, ...] = ()

    def __post_init__(self) -> None:
        if self.router is None and self.replicas != 1:
            raise ValueError(f"{self.name}: a drill without a router runs "
                             f"exactly one replica")
        if self.router is not None and self.replicas < 2:
            raise ValueError(f"{self.name}: a fleet drill needs at least "
                             f"2 replicas")

    def plan(self, seed: int, victim: Optional[str] = None
             ) -> Optional[FaultPlan]:
        """The seeded fault plan, :data:`VICTIM` tags bound to ``victim``."""
        if not self.faults:
            return None
        return FaultPlan(seed=seed, faults=[
            replace(s, tag=victim) if s.tag == VICTIM else s
            for s in self.faults
        ])

    @property
    def stall_ms(self) -> float:
        """The longest injected stall (0 without one)."""
        return max((s.delay_ms for s in self.faults if s.kind == "stall"),
                   default=0.0)

    @property
    def client_retries(self) -> int:
        """:data:`CLIENT_RETRIES` if the plan drops client connections."""
        return (CLIENT_RETRIES if any(s.point == "transport.disconnect"
                                      for s in self.faults) else 0)


@dataclass
class DrillReport:
    """Everything one drill observed, plus the bound checks."""

    scenario: Scenario
    report: LoadReport
    wall_p99_ms: float              #: client-observed, submit to answer
    requests_digest: str            #: request stream before the run
    replay_digest: str              #: the same spec re-expanded after it
    plan_fingerprint: str           #: ``""`` without a plan
    victim: str                     #: replica owning the first lane
    faults_fired: Dict[str, int]    #: per fault point; ``replica.kill``
    observed: Dict[str, float]      #: counter deltas and drill witnesses
    health_after: dict              #: ``op: health`` of the client's target
    placement_before: Dict[str, str] = field(default_factory=dict)
    placement_after: Dict[str, str] = field(default_factory=dict)
    max_p99_ms: Optional[float] = None
    failures: List[str] = field(default_factory=list)

    @property
    def answered_rate(self) -> float:
        """OK responses over requests that were not shed/expired."""
        denom = self.report.total - self.report.shed
        return self.report.ok / denom if denom > 0 else 1.0

    @property
    def moved_lanes(self) -> List[str]:
        return [lane for lane, owner in self.placement_before.items()
                if self.placement_after.get(lane) != owner]

    def check(self) -> List[str]:
        """Evaluate every bound; the (cached) list of failures."""
        observed = defaultdict(float, self.observed)
        self.failures = []
        for holds, message in SHARED_BOUNDS + self.scenario.bounds:
            if not holds(self):
                self.failures.append(message.format(d=self, o=observed))
        return self.failures

    @property
    def ok(self) -> bool:
        return not self.check()

    def record(self) -> None:
        """Publish the drill as ``<scenario.name>.*`` gauges."""
        registry = get_registry()
        gauges = dict(self.observed)
        gauges.update(
            answered_rate=self.answered_rate,
            faults_fired=float(sum(self.faults_fired.values())),
            wall_p99_ms=self.wall_p99_ms,
            moved_lanes=float(len(self.moved_lanes)),
            unhandled_failures=float(len(self.check())),
        )
        for name, value in gauges.items():
            registry.gauge(f"{self.scenario.name}.{name}").set(float(value))

    def render(self) -> str:
        s = self.scenario
        replay = ("identical" if self.replay_digest == self.requests_digest
                  else "DIVERGED")
        cap = (f" (cap {self.max_p99_ms:.1f})"
               if self.max_p99_ms is not None else "")
        lines = [
            self.report.render(),
            f"  drill       : {s.name}, {s.replicas} replica(s), "
            f"victim {self.victim}",
            "  faults      : " + (", ".join(
                f"{point}={count}"
                for point, count in sorted(self.faults_fired.items())
            ) or "none fired"),
            f"  fingerprint : plan {self.plan_fingerprint[:12] or '-'}  "
            f"requests {self.requests_digest[:12]} (replay {replay})",
            f"  tail        : wall p99 {self.wall_p99_ms:.1f} ms{cap}",
            "  observed    : " + ", ".join(
                f"{name}={value:g}"
                for name, value in sorted(self.observed.items()) if value
            ),
            f"  answered    : {self.answered_rate * 100:.2f}% of non-shed "
            f"(bound {MIN_ANSWERED_RATE * 100:.0f}%)",
            "  health      : " + "  ".join(
                f"{k}={self.health_after.get(k)}"
                for k in ("ready", "workers_alive", "usable", "total")
                if k in self.health_after
            ),
        ]
        if self.placement_before != self.placement_after:
            lines.append(f"  placement   : moved "
                         f"{', '.join(self.moved_lanes)}")
        failures = self.check()
        if failures:
            lines.append("  CHAOS FAIL  : " + "; ".join(failures))
        else:
            lines.append(f"  chaos check : all {s.name} bounds held")
        return "\n".join(lines)


# ------------------------------------------------------------------ bounds

#: Bounds every drill keeps, before its scenario's own.
SHARED_BOUNDS: Tuple[Bound, ...] = (
    (lambda d: sum(d.faults_fired.values()) > 0,
     "no fault fired — the drill is inert"),
    (lambda d: d.report.errors == 0,
     "{d.report.errors} unhandled errors — an injected fault must surface "
     "as a retry, reroute, hedge or accounted shed"),
    (lambda d: d.answered_rate >= MIN_ANSWERED_RATE,
     "answered rate {d.answered_rate:.4f} < "
     f"{MIN_ANSWERED_RATE} ({{d.report.ok}} ok of {{d.report.total}}, "
     "{d.report.shed} shed)"),
    (lambda d: d.replay_digest == d.requests_digest,
     "replay fingerprint changed: {d.requests_digest:.12} → "
     "{d.replay_digest:.12}"),
    (lambda d: d.max_p99_ms is None or d.wall_p99_ms <= d.max_p99_ms,
     "wall p99 {d.wall_p99_ms:.1f} ms exceeded the cap "
     "{d.max_p99_ms:.1f} ms"),
)

_READY: Bound = (lambda d: bool(d.health_after.get("ready")),
                 "not ready after the drill: {d.health_after}")


# --------------------------------------------------------------- scenarios

#: Every serving fault point, bounded for a few-hundred-request workload.
SERVE = Scenario(
    name="serve.chaos",
    faults=(
        FaultSpec(point="serve.engine", kind="error",
                  probability=0.05, max_fires=4, after=5),
        FaultSpec(point="serve.engine", kind="delay",
                  probability=0.05, max_fires=5, delay_ms=25.0),
        FaultSpec(point="serve.worker", kind="error", after=10, max_fires=1),
        FaultSpec(point="nn.compile", kind="error", max_fires=1),
        FaultSpec(point="transport.garbage", kind="error",
                  probability=0.05, max_fires=3),
        FaultSpec(point="transport.disconnect", kind="error",
                  after=40, max_fires=1),
    ),
    garbage=True,
    bounds=(
        _READY,
        (lambda d: bool(d.observed.get("garbage_answered")),
         "garbage feeder got no structured error replies"),
        (lambda d: d.observed.get("snapshots", 2) >= 2,
         "telemetry snapshot loop did not advance "
         "({o[snapshots]:g} snapshots taken)"),
    ),
)

#: Four replicas; the lane owner crashes mid-run.
KILL = Scenario(
    name="fleet.chaos",
    kill=True,
    replicas=4,
    router=RouterConfig(probe_interval_s=0.1),
    bounds=(
        _READY,
        (lambda d: d.health_after.get("usable") == d.scenario.replicas - 1,
         "router should report one usable replica fewer than "
         "{d.scenario.replicas} after the kill: {d.health_after}"),
        (lambda d: d.observed.get("ok_after_kill", 0) > 0,
         "no request completed after the kill — the router did not carry "
         "traffic on the surviving replicas"),
        (lambda d: bool(d.moved_lanes)
         and all(d.placement_before[lane] == d.victim
                 for lane in d.moved_lanes)
         and d.victim not in d.placement_after.values(),
         "the kill must move the victim {d.victim}'s lanes and only "
         "those: {d.placement_before} → {d.placement_after}"),
    ),
)

#: Three replicas; every hop to the lane owner stalls once the router has
#: the forward samples hedging needs.  The drill concentrates a whole
#: lane on the victim, so the hedge rate cap is lifted (in production
#: lanes spread over the ring and SLOW primaries bypass the cap anyway)
#: and probes run fast enough for detection to land within the run.
GRAY = Scenario(
    name="fleet.gray",
    faults=(
        FaultSpec(point="fleet.forward", kind="stall", probability=1.0,
                  max_fires=None, after=24, delay_ms=STALL_MS, tag=VICTIM),
    ),
    scale_up=True,
    replicas=3,
    router=RouterConfig(probe_interval_s=0.05, slow_windows=2,
                        hedge_rate_cap=1.0, hedge_min_samples=16),
    bounds=(
        (lambda d: d.wall_p99_ms <= d.scenario.stall_ms / 2.0,
         "wall p99 {d.wall_p99_ms:.1f} ms exceeded half the "
         "{d.scenario.stall_ms:.0f} ms stall"),
        (lambda d: not d.observed.get("duplicates"),
         "{o[duplicates]:g} request id(s) answered more than once — "
         "hedging broke exactly-once responses"),
        (lambda d: d.observed.get("slow_detections", 0) > 0,
         "victim {d.victim} was never detected SLOW — the latency-window "
         "path did not fire"),
        (lambda d: 0 < d.observed.get("hedges", 0) == (
            d.observed.get("hedge_wins", 0)
            + d.observed.get("hedge_losses", 0)),
         "hedge accounting broken: fired {o[hedges]:g} (must be > 0) != "
         "wins {o[hedge_wins]:g} + losses {o[hedge_losses]:g}"),
        (lambda d: not d.observed.get("starting_served"),
         "the scale-up replica answered {o[starting_served]:g} forward(s) "
         "before its warm-up gate opened"),
        (lambda d: bool(d.observed.get("gate_ready")),
         "the scale-up replica was not routable after warm-up"),
        (lambda d: not (d.observed.get("cold_builds")
                        or d.observed.get("cold_plans")),
         "post-scale-up traffic triggered {o[cold_builds]:g} model "
         "build(s) and {o[cold_plans]:g} plan compile(s)"),
        (lambda d: d.observed.get("post_scale_ok", 0) > 0,
         "no request completed after the scale-up"),
    ),
)


# ------------------------------------------------------------------ runner

def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return float(metric.value) if metric is not None else 0.0


async def run_drill(
    scenario: Scenario,
    spec: WorkloadSpec,
    config: Optional[ServeConfig] = None,
    fault_seed: Optional[int] = None,
    max_p99_ms: Optional[float] = None,
) -> DrillReport:
    """Run one drill end to end and return its (recorded) report.

    ``fault_seed`` seeds the fault plan (default: the workload seed);
    ``max_p99_ms`` caps the client wall p99.
    """
    config = config or ServeConfig(preload=list(spec.keys))
    lanes = [FleetRouter.lane(k.canonical(), bool(config.int8))
             for k in spec.keys]
    digest = requests_digest(spec)
    supervisor = FleetSupervisor(base_config=config, mode="inproc")
    ids = [supervisor.next_replica_id() for _ in range(scenario.replicas)]
    router_config = (replace(scenario.router, seed=spec.seed)
                     if scenario.router is not None else None)
    if router_config is None:
        placement = {lane: ids[0] for lane in lanes}
    else:
        # The router builds the same ring: placement is a pure function
        # of (seed, replica ids, lane), so the victim is known before
        # the replicas start — the plan must be live for their startup.
        placement = HashRing(ids, vnodes=router_config.vnodes,
                             seed=router_config.seed).assignment(lanes)
    victim = placement[lanes[0]]
    plan = scenario.plan(spec.seed if fault_seed is None else fault_seed,
                         victim)
    previous = current_injector()
    injector = install_plan(plan)
    before = {name: _counter(c) for name, c in _COUNTERS.items()}
    observed: Dict[str, float] = {}
    wall: List[float] = []
    answered: Dict[int, int] = {}
    kill_after = (max(1, int(spec.requests * KILL_FRACTION))
                  if scenario.kill else 0)
    kill_task: Optional[asyncio.Task] = None
    router: Optional[FleetRouter] = None
    _log.info("chaos drill starting", drill=scenario.name, victim=victim,
              replicas=scenario.replicas, requests=spec.requests,
              plan=plan.fingerprint()[:12] if plan else None)
    try:
        endpoints = [await supervisor.spawn(replica_id=rid) for rid in ids]
        servers = [h.server for h in supervisor.replicas.values()]
        target = endpoints[0]
        if router_config is not None:
            router = FleetRouter(endpoints, router_config)
            await router.start()
            target = replace(target, port=router.port)
        client = RemoteClient(target.host, target.port,
                              timeout_s=CLIENT_TIMEOUT_S,
                              retries=scenario.client_retries,
                              seed=spec.seed)

        async def submit(request):
            nonlocal kill_task
            t0 = time.perf_counter()
            response = await client.submit(request)
            wall.append((time.perf_counter() - t0) * 1000.0)
            answered[response.request_id] = (
                answered.get(response.request_id, 0) + 1)
            if kill_task is not None:
                observed["ok_after_kill"] += int(response.ok)
            elif kill_after and len(wall) >= kill_after:
                # The router must discover the death through failed
                # forwards and probes: membership is not touched here.
                observed.update(killed_at=len(wall), ok_after_kill=0)
                kill_task = asyncio.create_task(supervisor.kill(victim))
            return response

        try:
            await client.connect()
            feeder = (asyncio.create_task(
                _garbage_feeder(target.host, target.port))
                if scenario.garbage else None)
            report = await run_workload(submit, spec)
            if kill_task is not None:
                await kill_task
            # Let forwards still stalled behind the workload land: SLOW
            # detection only sees completed forwards.
            await asyncio.sleep(scenario.stall_ms / 1000.0)
            if feeder is not None:
                observed["garbage_answered"] = float(
                    await _side_task_ok(feeder))
            if router is None:
                report.attach_alerts(servers[0].alerts())
                placement_after = placement
            else:
                await router.probe_once()  # settle the victim's state
                placement_after = router.ring.assignment(lanes)
            health = await client.health()
            if scenario.scale_up:
                install_plan(None)  # the scale-up is about cold plans
                observed.update(await _scale_up(
                    supervisor, router, client, config, spec))
        finally:
            await client.close()
    finally:
        install_plan(previous.plan if previous is not None else None)
        if router is not None:
            await router.stop()
        await supervisor.stop()

    observed.update({name: _counter(c) - before[name]
                     for name, c in _COUNTERS.items()})
    observed["duplicates"] = sum(1 for n in answered.values() if n > 1)
    taken = [s.snapshots.ring.taken for s in servers
             if s.snapshots is not None]
    if taken:
        observed["snapshots"] = min(taken)
    faults = ({point: info["fired"]
               for point, info in injector.snapshot().items()
               if info["fired"]} if injector is not None else {})
    if kill_task is not None:
        faults["replica.kill"] = 1
    wall.sort()
    drill = DrillReport(
        scenario=scenario,
        report=report,
        wall_p99_ms=percentile(wall, 99.0),
        requests_digest=digest,
        replay_digest=requests_digest(spec),
        plan_fingerprint=plan.fingerprint() if plan else "",
        victim=victim,
        faults_fired=faults,
        observed=observed,
        health_after=health,
        placement_before=placement,
        placement_after=placement_after,
        max_p99_ms=max_p99_ms,
    )
    drill.record()
    return drill


async def _side_task_ok(task: asyncio.Task) -> bool:
    """A finished side task's verdict; a crashed one is a finding."""
    try:
        return bool(await task)
    except Exception as exc:
        _log.warning("side task failed", error=f"{type(exc).__name__}: {exc}")
        return False


async def _scale_up(supervisor: FleetSupervisor, router: FleetRouter,
                    client: RemoteClient, config: ServeConfig,
                    spec: WorkloadSpec) -> Dict[str, float]:
    """Warm-gated scale-up under the live router; its witnesses.

    The new replica starts with an empty preload, so the warm-up itself
    must build and compile every lane — which makes the zero-delta check
    on ``serve.registry.builds`` / ``runtime.plans`` non-vacuous.
    """
    endpoint = await supervisor.spawn(
        config=replace(config, preload=[], require_warmup=True))
    router.add_replica(endpoint)
    await router.probe_once()
    cold_link = router.links[endpoint.replica_id]
    # Traffic against the gate: the STARTING replica must see none.
    for request in build_requests(replace(
            spec, requests=SCALE_UP_REQUESTS // 2)):
        await client.submit(request)
    starting_served = cold_link.ok
    warmed = await warm_replica(router, endpoint.replica_id,
                                lanes=lane_specs(config))
    gate_ready = cold_link.health.usable
    builds0 = _counter("serve.registry.builds")
    plans0 = _counter("runtime.plans")
    post_ok = 0
    # Straight at the new replica as well as through the router, so
    # "zero cold builds" is about it and not about routing luck.
    direct = RemoteClient(endpoint.host, endpoint.port,
                          timeout_s=CLIENT_TIMEOUT_S, seed=spec.seed)
    try:
        await direct.connect()
        for target, seed in ((direct, spec.seed + 1), (client, spec.seed + 2)):
            for request in build_requests(replace(
                    spec, requests=SCALE_UP_REQUESTS, seed=seed)):
                post_ok += int((await target.submit(request)).ok)
    finally:
        await direct.close()
    return {
        "starting_served": float(starting_served),
        "gate_ready": float(gate_ready),
        "warmed_lanes": float(warmed.get("warmed", 0)),
        "cold_builds": _counter("serve.registry.builds") - builds0,
        "cold_plans": _counter("runtime.plans") - plans0,
        "post_scale_ok": float(post_ok),
    }


async def _garbage_feeder(host: str, port: int, frames: int = 4) -> bool:
    """Poke the transport with malformed + oversized lines.

    ``True`` iff every bad frame got a structured error reply and the
    connection still answered a well-formed op at the end.  An injected
    ``transport.disconnect`` may land on *this* connection, so each
    frame tolerates a reconnect — what is asserted is the structured
    reply, not connection affinity.
    """
    reader = writer = None

    async def close() -> None:
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def reconnect() -> None:
        nonlocal reader, writer
        await close()
        reader, writer = await asyncio.open_connection(host, port)

    async def exchange(payload: bytes) -> Optional[dict]:
        for _ in range(3):
            try:
                if writer is None or writer.is_closing():
                    await reconnect()
                writer.write(payload)
                await writer.drain()
                # An injected garbage frame may precede the real reply
                # (transport.garbage) — skip unparseable lines.
                for _skip in range(4):
                    line = await asyncio.wait_for(reader.readline(),
                                                  timeout=10.0)
                    if not line:
                        break
                    try:
                        return json.loads(line)
                    except ValueError:
                        continue
            except (ConnectionError, asyncio.TimeoutError, OSError):
                pass
            await reconnect()
        return None

    answered = 0
    try:
        await reconnect()
        payloads = [b"{this is not json]\n", b"[1, 2, 3]\n"] * frames
        payloads.append(b"x" * (MAX_LINE_BYTES + 512) + b"\n")
        for payload in payloads:
            reply = await exchange(payload)
            if (reply is not None and reply.get("status") == "error"
                    and "bad request" in reply.get("error", "")):
                answered += 1
        pong = await exchange(b'{"op": "ping"}\n')
        return (pong is not None and pong.get("op") == "pong"
                and answered == len(payloads))
    finally:
        await close()

"""Deterministic load generation + closed/open-loop benchmark harness.

A :class:`WorkloadSpec` expands to a fully deterministic request stream
(model choice, input seed and priority all derive from one workload
seed), so two runs of the same spec issue byte-identical requests — the
timing varies with the host, the *work* does not.

Two standard load models:

* **closed loop** — ``clients`` concurrent virtual users, each issuing
  its next request as soon as the previous one completes.  Throughput is
  an output; this is the "sustained traffic" mode.
* **open loop** — requests arrive on a seeded exponential (Poisson)
  schedule at ``rate`` req/s regardless of completions, which is the mode
  that actually exercises shedding and SLO expiry under overload.

The :class:`LoadReport` aggregates what a serving benchmark needs —
throughput, p50/p95/p99 wall latency, batch-size histogram, shed rate,
SLO violations, simulated-hardware milliseconds — renders a table, and
records itself as ``serve.loadgen.*`` gauges so ``--metrics-out``
sidecars carry the numbers in ``repro.metrics/v1`` form.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_logger, get_registry
from ..obs.alerts import Alert
from ..obs.stats import percentile
from .request import InferenceRequest, InferenceResponse, ModelKey, Status

__all__ = [
    "WorkloadSpec",
    "LoadReport",
    "RampStep",
    "build_requests",
    "requests_digest",
    "run_workload",
    "saturation_qps",
]

_log = get_logger("serve.loadgen")

Submit = Callable[[InferenceRequest], Awaitable[InferenceResponse]]


@dataclass
class WorkloadSpec:
    """A reproducible traffic description."""

    keys: List[ModelKey]
    requests: int = 500
    mode: str = "closed"                 #: closed | open
    clients: int = 8                     #: closed-loop virtual users
    rate: float = 50.0                   #: open-loop arrivals per second
    slo_ms: Optional[float] = None       #: per-request budget (server default if None)
    priorities: Sequence[int] = (0,)     #: sampled uniformly per request
    seed: int = 0
    #: Open-loop stair profile ``(start_rate, end_rate, steps)``: the
    #: request stream is split into ``steps`` equal slices, slice *i*
    #: arriving at the i-th rate of ``linspace(start, end, steps)``.
    #: Implies (and requires) ``mode="open"``; the *stream* is unchanged
    #: — ramping only reshapes arrival times, so replay fingerprints
    #: (:func:`requests_digest`) are ramp-invariant.
    ramp: Optional[Tuple[float, float, int]] = None

    def __post_init__(self) -> None:
        if not self.keys:
            raise ValueError("workload needs at least one ModelKey")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.ramp is not None:
            start, end, steps = self.ramp
            if self.mode != "open":
                raise ValueError("ramp profiles are open-loop (mode='open')")
            if start <= 0 or end <= 0:
                raise ValueError("ramp rates must be > 0")
            if int(steps) < 2:
                raise ValueError("ramp needs at least 2 steps")
            self.ramp = (float(start), float(end), int(steps))

    def step_rates(self) -> List[float]:
        """The per-step arrival rates of the ramp (empty without one)."""
        if self.ramp is None:
            return []
        start, end, steps = self.ramp
        return [float(r) for r in np.linspace(start, end, steps)]


def build_requests(spec: WorkloadSpec) -> List[InferenceRequest]:
    """Expand a spec into its deterministic request stream."""
    rng = np.random.default_rng(spec.seed)
    picks = rng.integers(0, len(spec.keys), size=spec.requests)
    seeds = rng.integers(0, 2**31 - 1, size=spec.requests)
    prios = rng.integers(0, len(spec.priorities), size=spec.requests)
    return [
        InferenceRequest(
            key=spec.keys[int(picks[i])],
            input_seed=int(seeds[i]),
            slo_ms=spec.slo_ms,
            priority=int(spec.priorities[int(prios[i])]),
        )
        for i in range(spec.requests)
    ]


def requests_digest(spec: WorkloadSpec) -> str:
    """SHA-256 over the spec's request stream (the drills' replay proof)."""
    h = hashlib.sha256()
    for r in build_requests(spec):
        h.update(f"{r.key.canonical()}|{r.input_seed}|{r.priority}\n".encode())
    return h.hexdigest()


# ------------------------------------------------------------------ drivers

async def _run_closed(
    submit: Submit, requests: List[InferenceRequest], clients: int
) -> List[InferenceResponse]:
    responses: List[Optional[InferenceResponse]] = [None] * len(requests)
    cursor = iter(range(len(requests)))

    async def client() -> None:
        for index in cursor:  # the shared iterator hands out unique indices
            responses[index] = await submit(requests[index])

    await asyncio.gather(*(client() for _ in range(max(1, clients))))
    return [r for r in responses if r is not None]


async def _run_open(
    submit: Submit, requests: List[InferenceRequest], rate: float, seed: int
) -> List[InferenceResponse]:
    if rate <= 0:
        raise ValueError("open-loop rate must be > 0")
    rng = np.random.default_rng(seed ^ 0x5EED)
    gaps = rng.exponential(1.0 / rate, size=len(requests))
    tasks = []
    for request, gap in zip(requests, gaps):
        await asyncio.sleep(float(gap))
        tasks.append(asyncio.create_task(submit(request)))
    return list(await asyncio.gather(*tasks))


async def _run_ramp(
    submit: Submit, requests: List[InferenceRequest], spec: WorkloadSpec
) -> Tuple[List[InferenceResponse], List["RampStep"]]:
    """Stair profile: equal request slices at linearly spaced rates.

    Each step is its own little open-loop run (seeded exponential gaps at
    that step's rate) and is summarized separately, which is what makes
    the profile useful: the saturation knee shows up as the first step
    whose achieved throughput stops tracking the offered rate.
    """
    rates = spec.step_rates()
    bounds = np.linspace(0, len(requests), len(rates) + 1).astype(int)
    responses: List[InferenceResponse] = []
    steps: List[RampStep] = []
    for index, rate in enumerate(rates):
        chunk = requests[bounds[index]:bounds[index + 1]]
        if not chunk:
            continue
        start = time.perf_counter()
        answered = await _run_open(submit, chunk, rate,
                                   spec.seed ^ (index + 1))
        wall_s = time.perf_counter() - start
        responses.extend(answered)
        steps.append(RampStep.from_responses(index, rate, answered, wall_s))
        _log.info("ramp step complete", step=index, rate=round(rate, 1),
                  ok=steps[-1].ok, shed=steps[-1].shed,
                  p99_ms=round(steps[-1].p99_ms, 1))
    return responses, steps


async def run_workload(submit: Submit, spec: WorkloadSpec) -> "LoadReport":
    """Drive one workload against any submit callable; aggregate a report."""
    requests = build_requests(spec)
    _log.info("load generation starting", mode=spec.mode,
              requests=len(requests), clients=spec.clients,
              models=len(spec.keys), ramp=spec.ramp)
    steps: List[RampStep] = []
    start = time.perf_counter()
    if spec.mode == "closed":
        responses = await _run_closed(submit, requests, spec.clients)
    elif spec.ramp is not None:
        responses, steps = await _run_ramp(submit, requests, spec)
    else:
        responses = await _run_open(submit, requests, spec.rate, spec.seed)
    wall_s = time.perf_counter() - start
    report = LoadReport.from_responses(responses, wall_s, spec)
    report.ramp_steps = steps
    report.record()
    return report


# ------------------------------------------------------------------- report

#: Kept as a module alias (tests and older callers import it from here);
#: the implementation lives in :func:`repro.obs.stats.percentile` now,
#: shared with the histogram-quantile estimator of live telemetry.
_percentile = percentile


@dataclass
class RampStep:
    """One stair of a ramp profile, summarized."""

    index: int
    offered_rps: float          #: the step's arrival rate
    total: int
    ok: int
    shed: int
    errors: int
    achieved_rps: float         #: ok completions over the step's wall time
    p99_ms: float
    wall_s: float

    @classmethod
    def from_responses(
        cls, index: int, rate: float,
        responses: List[InferenceResponse], wall_s: float,
    ) -> "RampStep":
        ok_latencies = sorted(r.total_ms for r in responses if r.ok)
        ok = len(ok_latencies)
        shed = sum(1 for r in responses
                   if r.status in (Status.SHED, Status.EXPIRED))
        errors = sum(1 for r in responses if r.status is Status.ERROR)
        return cls(
            index=index, offered_rps=rate, total=len(responses), ok=ok,
            shed=shed, errors=errors,
            achieved_rps=ok / wall_s if wall_s > 0 else 0.0,
            p99_ms=_percentile(ok_latencies, 99), wall_s=wall_s,
        )

    @property
    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "step": self.index,
            "offered_rps": round(self.offered_rps, 3),
            "achieved_rps": round(self.achieved_rps, 3),
            "total": self.total, "ok": self.ok, "shed": self.shed,
            "errors": self.errors, "p99_ms": round(self.p99_ms, 3),
            "wall_s": round(self.wall_s, 3),
        }


def saturation_qps(steps: List[RampStep],
                   max_shed_rate: float = 0.01) -> float:
    """The saturation estimate a ramp run exists to produce.

    The highest offered rate the service kept up with — achieved
    throughput within 90% of offered and shed rate at most
    ``max_shed_rate``.  If even the first stair overloads, fall back to
    the best achieved throughput (the service's actual capacity).
    """
    sustained = [s.offered_rps for s in steps
                 if s.shed_rate <= max_shed_rate
                 and s.achieved_rps >= 0.9 * s.offered_rps]
    if sustained:
        return max(sustained)
    return max((s.achieved_rps for s in steps), default=0.0)


@dataclass
class LoadReport:
    """Aggregate of one load-generation run."""

    total: int
    wall_s: float
    status_counts: Dict[str, int]
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    mean_batch: float
    batch_histogram: Dict[int, int]
    slo_violations: int
    mean_simulated_ms: float
    mode: str
    per_model: Dict[str, int] = field(default_factory=dict)
    degraded: int = 0      #: OK responses produced by a fallback stage
    #: Burn-rate alert states attached after the run (the loadgen only
    #: sees responses; the caller owning the server's snapshot ring calls
    #: :meth:`attach_alerts` so the report shows the telemetry verdicts).
    alerts: List[Alert] = field(default_factory=list)
    #: Per-stair summaries of a ramp profile (empty without ``spec.ramp``).
    ramp_steps: List[RampStep] = field(default_factory=list)

    @classmethod
    def from_responses(
        cls,
        responses: List[InferenceResponse],
        wall_s: float,
        spec: WorkloadSpec,
    ) -> "LoadReport":
        counts: Dict[str, int] = {}
        per_model: Dict[str, int] = {}
        batch_hist: Dict[int, int] = {}
        ok_latencies: List[float] = []
        batches: List[int] = []
        sims: List[float] = []
        violations = 0
        degraded = 0
        for r in responses:
            counts[r.status.value] = counts.get(r.status.value, 0) + 1
            per_model[r.key.canonical()] = per_model.get(r.key.canonical(), 0) + 1
            if r.degraded:
                degraded += 1
            if r.ok:
                ok_latencies.append(r.total_ms)
                batches.append(r.batch_size)
                batch_hist[r.batch_size] = batch_hist.get(r.batch_size, 0) + 1
                sims.append(r.simulated_ms)
                if not r.slo_met:
                    violations += 1
        ok_latencies.sort()
        return cls(
            total=len(responses),
            wall_s=wall_s,
            status_counts=counts,
            p50_ms=_percentile(ok_latencies, 50),
            p95_ms=_percentile(ok_latencies, 95),
            p99_ms=_percentile(ok_latencies, 99),
            mean_ms=float(np.mean(ok_latencies)) if ok_latencies else 0.0,
            max_ms=ok_latencies[-1] if ok_latencies else 0.0,
            mean_batch=float(np.mean(batches)) if batches else 0.0,
            batch_histogram=dict(sorted(batch_hist.items())),
            slo_violations=violations,
            mean_simulated_ms=float(np.mean(sims)) if sims else 0.0,
            mode=spec.mode,
            degraded=degraded,
        )

    # ------------------------------------------------------------ accessors

    @property
    def ok(self) -> int:
        return self.status_counts.get(Status.OK.value, 0)

    @property
    def errors(self) -> int:
        return self.status_counts.get(Status.ERROR.value, 0)

    @property
    def shed(self) -> int:
        return (self.status_counts.get(Status.SHED.value, 0)
                + self.status_counts.get(Status.EXPIRED.value, 0))

    @property
    def shed_rate(self) -> float:
        return self.shed / self.total if self.total else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def slo_violation_rate(self) -> float:
        return self.slo_violations / self.ok if self.ok else 0.0

    @property
    def saturation_qps(self) -> float:
        """Ramp-derived saturation estimate (0.0 without a ramp profile)."""
        return saturation_qps(self.ramp_steps) if self.ramp_steps else 0.0

    def attach_alerts(self, alerts: List[Alert]) -> "LoadReport":
        """Attach evaluated burn-rate alerts (rendered and recorded)."""
        self.alerts = list(alerts)
        registry = get_registry()
        for alert in self.alerts:
            registry.gauge(
                "serve.loadgen.alert_firing", rule=alert.rule
            ).set(1.0 if alert.firing else 0.0)
        return self

    # -------------------------------------------------------------- outputs

    def record(self) -> None:
        """Publish the report as ``serve.loadgen.*`` gauges (metrics JSON)."""
        registry = get_registry()
        gauges = {
            "serve.loadgen.requests": self.total,
            "serve.loadgen.ok": self.ok,
            "serve.loadgen.errors": self.errors,
            "serve.loadgen.shed": self.shed,
            "serve.loadgen.shed_rate": self.shed_rate,
            "serve.loadgen.throughput_rps": self.throughput_rps,
            "serve.loadgen.p50_ms": self.p50_ms,
            "serve.loadgen.p95_ms": self.p95_ms,
            "serve.loadgen.p99_ms": self.p99_ms,
            "serve.loadgen.mean_batch": self.mean_batch,
            "serve.loadgen.slo_violations": self.slo_violations,
            "serve.loadgen.slo_violation_rate": self.slo_violation_rate,
            "serve.loadgen.wall_seconds": self.wall_s,
            "serve.loadgen.mean_simulated_ms": self.mean_simulated_ms,
            "serve.loadgen.degraded": self.degraded,
        }
        if self.ramp_steps:
            gauges["serve.loadgen.saturation_qps"] = self.saturation_qps
            gauges["serve.loadgen.ramp_steps"] = len(self.ramp_steps)
        for name, value in gauges.items():
            registry.gauge(name).set(float(value))

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"load report ({self.mode} loop): {self.total} requests "
            f"in {self.wall_s:.2f} s",
            f"  throughput  : {self.throughput_rps:.1f} ok req/s",
            f"  status      : " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.status_counts.items())
            ),
            f"  latency ms  : p50={self.p50_ms:.1f}  p95={self.p95_ms:.1f}  "
            f"p99={self.p99_ms:.1f}  mean={self.mean_ms:.1f}  max={self.max_ms:.1f}",
            f"  batch size  : mean={self.mean_batch:.2f}  histogram=" + (
                "{" + ", ".join(f"{k}: {v}" for k, v in self.batch_histogram.items()) + "}"
            ),
            f"  shed rate   : {self.shed_rate * 100:.1f}%  "
            f"(shed+expired {self.shed}/{self.total})",
            f"  SLO         : {self.slo_violations} violations "
            f"({self.slo_violation_rate * 100:.1f}% of ok)",
            f"  degraded    : {self.degraded} responses served by a "
            f"fallback stage",
            f"  simulated   : {self.mean_simulated_ms:.3f} ms/batch mean "
            f"(systolic-array cost model)",
        ]
        if self.per_model:
            lines.append("  per model   : " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.per_model.items())
            ))
        if self.ramp_steps:
            for step in self.ramp_steps:
                lines.append(
                    f"  ramp step {step.index:>2}: offered={step.offered_rps:7.1f} rps  "
                    f"achieved={step.achieved_rps:7.1f}  shed={step.shed_rate * 100:5.1f}%  "
                    f"p99={step.p99_ms:.1f} ms"
                )
            lines.append(
                f"  saturation  : ~{self.saturation_qps:.1f} req/s sustained "
                f"(highest stair within budget)"
            )
        if self.alerts:
            lines.append("  alerts      : " + "  ".join(
                f"{a.rule}={'FIRING' if a.firing else 'ok'}"
                for a in self.alerts
            ))
        runtime = self._runtime_line()
        if runtime:
            lines.append(runtime)
        return "\n".join(lines)

    @staticmethod
    def _runtime_line() -> str:
        """Compiled-runtime gauges, when the graph engine built a plan."""
        registry = get_registry()
        compile_ms = registry.get("runtime.compile_ms")
        if compile_ms is None:
            return ""
        arena = registry.get("runtime.arena_bytes")
        fused = registry.get("runtime.ops_fused")
        parts = [f"compile={compile_ms.value:.1f} ms"]
        if arena is not None:
            parts.append(f"arena={arena.value / 1024.0:.0f} KiB")
        if fused is not None:
            parts.append(f"ops_fused={int(fused.value)}")
        return "  runtime     : " + "  ".join(parts) + " (last compiled plan)"

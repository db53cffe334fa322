"""Each workload's untraced and traced run, and the metrics they yield.

The untraced run gives the end-to-end metrics.  The traced run measures
an untraced half and a traced half of the same length — their
difference is ``trace.overhead_pct`` — and derives the per-layer metrics
from the spans of the traced half.  A layer that a workload does not
exercise reads 0 there.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import repro.systolic.memory as memory
from repro.obs.stats import percentile
from repro.systolic.latency import mapping_cache_info

import serving
import sweep as sim
from checks import Outcome, References, check_records
from metrics import PER_LAYER, peak_rss_mb
from spans import Instrument, SpanRecorder

#: Set-ups per run; ``setup_s`` is their median.
SERVE_SETUPS = 3
SIM_SETUPS = 5
#: Shares of ``--seconds`` an untraced serving run spends serving, and
#: on analytic-only reproduction passes (``sweep_s`` and
#: ``paper_speedup_err_pct`` there), half before its server starts and
#: half after it stops: two windows a run apart smooth host-speed swings
#: that last tens of seconds.  The passes get as much time as serving:
#: their times swing with the host more than the serving median does.
SERVE_TIMED_SHARE = 3 / 5
SERVE_ANALYTIC_SHARE = 3 / 5


def _request_id(args, kwargs):
    return args[1].request_id


def _batch(args, kwargs, result):
    return {"batch": len(args[0]),
            "request_ids": [r.request_id for r in args[0].requests],
            "degraded": sum(1 for r in result or () if r.degraded)}


def _plan_run(args, kwargs, result):
    config = args[0].config
    flavor = ("int8" if config.quantize
              else "folded" if config.fold_bn else "exact")
    return {"flavor": flavor, "rows": int(args[1].shape[0])}


def _executor_run(args, kwargs, result):
    return {"cycles": result.cycles if result is not None else 0}


def _method(name):
    return lambda args, kwargs, result: {"method": name}


def instrument(recorder: SpanRecorder) -> Instrument:
    """Wrappers on every layer's public entry points, at the attribute
    each caller looks up."""
    inst = Instrument(recorder)
    inst.add("repro.serve.transport:RemoteClient", "request",
             "client.request", request_id=_request_id)
    inst.add("repro.serve.server:InferenceServer", "submit",
             "server.submit", request_id=_request_id)
    inst.add("repro.serve.workers", "execute_batch",
             "workers.execute_batch", annotate=_batch)
    for method in ("plan_batch_size", "simulated_ms", "predicted_wall_ms",
                   "calibration", "observe", "drain_ms"):
        inst.add("repro.serve.costmodel:BatchCostModel", method, "costmodel",
                 annotate=_method(method))
    inst.add("repro.serve.registry:RegisteredModel", "plan_for",
             "registry.plan_for")
    inst.add("repro.nn.compile", "compile_executor", "registry.compile")
    inst.add("repro.nn.compile:InferencePlan", "run", "compile.plan_run",
             annotate=_plan_run)
    for owner in ("repro.analysis.speedup", "repro.analysis.scaling",
                  "repro.serve.costmodel"):
        inst.add(owner, "estimate_network_cached", "latency.estimate")
    inst.add("repro.systolic.executor", "estimate_layer", "latency.estimate")
    inst.add("repro.systolic.executor:ArrayNetworkExecutor", "run",
             "executor.run", annotate=_executor_run)
    inst.add("repro.systolic.functional:SystolicArraySim", "run_gemm",
             "functional.gemm")
    inst.add("repro.systolic.functional:SystolicArraySim",
             "run_conv1d_broadcast", "functional.conv1d")
    for owner in ("repro.analysis.speedup", "repro.analysis.scaling",
                  "repro.serve.registry", "repro.core"):
        inst.add(owner, "to_fuseconv", "transform.to_fuseconv")
    for owner in ("repro.analysis.speedup", "repro.analysis.scaling",
                  "repro.serve.registry", "repro.models"):
        inst.add(owner, "build_model", "models.build_model")
    inst.add("repro.systolic.memory", "traffic_report",
             "memory.traffic_report")
    return inst


@dataclass
class Result:
    """What one run reports."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    wrong: int                       #: answers that were wrong
    reasons: Dict[str, int] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    digest: str = ""
    recorder: Optional[SpanRecorder] = None


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p(values: Sequence[float], q: float) -> float:
    return percentile(sorted(values), q)


def _cache_counts() -> tuple:
    info = mapping_cache_info()
    return info["hits"], info["misses"]


def _hit_ratio(before: tuple, after: tuple) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


# ------------------------------------------------------------------ serving

def _serve_outcome(spec, phases) -> Outcome:
    refs = References(spec.lanes, spec.config().max_batch)
    outcome = Outcome()
    for phase in phases:
        outcome.merge(check_records(phase.records, spec.lanes, refs))
    return outcome


def _serve_e2e(spec, phase, passed: List[bool]) -> Dict[str, float]:
    records = phase.records
    latencies = [r.latency_ms for r in records if r.error is None]
    within = sum(1 for r, ok in zip(records, passed)
                 if ok and r.latency_ms <= spec.slo_ms)
    return {
        "latency_p50_ms": _p(latencies, 50),
        "latency_p99_ms": _p(latencies, 99),
        "cpu_ms_per_req": phase.cpu_s * 1000.0 / len(records),
        "throughput_rps": sum(passed) / phase.elapsed_s,
        "slo_ok_ratio": within / len(records),
        "ok_ratio": sum(passed) / len(records),
    }


def serve_untraced(spec, seed: int, seconds: float) -> Result:
    window = seconds * SERVE_ANALYTIC_SHARE / 2
    passes, error = sim.analytic_passes(window)
    phase = asyncio.run(serving.measure(spec, seed,
                                        seconds * SERVE_TIMED_SHARE,
                                        setups=SERVE_SETUPS))
    passes += sim.analytic_passes(window)[0]
    outcome = _serve_outcome(spec, [phase])
    values = _serve_e2e(spec, phase, outcome.passed)
    values.update(setup_s=_median(phase.setup_s), sweep_s=_median(passes),
                  paper_speedup_err_pct=error, peak_rss_mb=phase.peak_rss_mb)
    return Result(values, outcome.attempted, outcome.failed,
                  outcome.wrong_outputs, dict(outcome.reasons),
                  samples={"requests": len(phase.records),
                           "setups": len(phase.setup_s),
                           "analytic_passes": len(passes)},
                  digest=phase.digest)


def serve_traced(spec, seed: int, seconds: float) -> Result:
    half = seconds / 2.0
    base = asyncio.run(serving.measure(spec, seed, half))
    recorder = SpanRecorder()
    before = _cache_counts()
    with instrument(recorder):
        traced = asyncio.run(serving.measure(spec, seed, half,
                                             recorder=recorder))
    ratio = _hit_ratio(before, _cache_counts())
    outcome = _serve_outcome(spec, [base, traced])
    e2e_base = _serve_e2e(spec, base, outcome.passed[:len(base.records)])
    e2e_traced = _serve_e2e(spec, traced,
                            outcome.passed[len(base.records):])
    if spec.closed:
        overhead = e2e_base["throughput_rps"] / e2e_traced["throughput_rps"]
    else:
        overhead = e2e_traced["latency_p50_ms"] / e2e_base["latency_p50_ms"]
    values = serve_layers(recorder, traced)
    values.update({
        "latency_p99_ms": e2e_base["latency_p99_ms"],
        "latency.mapping_hit_ratio": ratio,
        "loadgen.lag_p99_ms": 0.0 if spec.closed else _p(
            [r.lag_ms for r in traced.records], 99),
        "trace.overhead_pct": (overhead - 1.0) * 100.0,
    })
    return Result(values, outcome.attempted, outcome.failed,
                  outcome.wrong_outputs, dict(outcome.reasons),
                  samples={"requests_untraced": len(base.records),
                           "requests_traced": len(traced.records),
                           "spans": len(recorder.spans)},
                  digest=traced.digest, recorder=recorder)


def serve_layers(rec: SpanRecorder, traced) -> Dict[str, float]:
    """Per-layer metrics from the spans of a traced serving phase.

    Totals (``*_ms_total``, ``costmodel.calls``) cover the traced timed
    phase, except ``registry.compile_ms_total``, ``models.build_ms_total``
    and ``transform.ms_total``, which cover the traced set-up.
    """
    def timed(name):
        return rec.named(name, "timed")

    def total(spans):
        return sum(s.ms for s in spans)

    client = {s.request_id: s.ms for s in timed("client.request")}
    submit = {s.request_id: s.ms for s in timed("server.submit")}
    batches = timed("workers.execute_batch")
    execute = {rid: s.ms for s in batches for rid in s.args["request_ids"]}
    values = {m.name: 0.0 for m in PER_LAYER}
    values.update({
        "transport.self_ms_p50": _median(
            [client[r] - submit[r] for r in client if r in submit]),
        "server.submit_ms_p50": _median(list(submit.values())),
        "scheduler.queue_wait_ms_p50": _median(
            [submit[r] - execute[r] for r in submit if r in execute]),
        "costmodel.calls": float(len(timed("costmodel"))),
        "costmodel.ms_total": total(timed("costmodel")),
        "workers.batch_size_mean": statistics.fmean(
            s.args["batch"] for s in batches) if batches else 0.0,
        "workers.execute_ms_p50": _median([s.ms for s in batches]),
        "workers.degraded": float(sum(s.args["degraded"] for s in batches)),
        "registry.hot_compiles": float(len(timed("registry.compile"))),
        "registry.compile_ms_total": total(
            rec.named("registry.compile", "setup")),
        "latency.estimate_ms_total": total(timed("latency.estimate")),
        "models.build_ms_total": total(rec.named("models.build_model",
                                                 "setup")),
        "transform.ms_total": total(rec.named("transform.to_fuseconv",
                                              "setup")),
    })
    runs = rec.named("compile.plan_run")
    for flavor, counts in traced.probe.items():
        spans = [s for s in runs if s.args["flavor"] == flavor]
        served = [s for s in spans if s.phase == "timed"]
        spans = served or [s for s in spans if s.phase == "probe"]
        values[f"compile.ms_per_image.{flavor}"] = (
            total(spans) / sum(s.args["rows"] for s in spans))
        values[f"compile.macs_per_image.{flavor}"] = float(counts["macs"])
        values[f"compile.arena_bytes.{flavor}"] = float(counts["arena_bytes"])
    return values


# ---------------------------------------------------------------- sim-sweep

def _sweep_e2e(sweep) -> Dict[str, float]:
    passes = len(sweep.seconds)
    return {
        "latency_p50_ms": _median(sweep.seconds) * 1000.0,
        "latency_p99_ms": _p(sweep.seconds, 99) * 1000.0,
        "cpu_ms_per_req": sweep.cpu_s * 1000.0 / passes,
        # A serial loop's rate at the median pass time: a mean over the
        # run would follow the few passes a host stall stretched.
        "throughput_rps": sum(sweep.pass_ok) / passes
        / _median(sweep.seconds),
        "slo_ok_ratio": sum(1 for ok, s in zip(sweep.pass_ok, sweep.seconds)
                            if ok and s <= sim.PASS_LIMIT_S) / passes,
        "ok_ratio": sum(sweep.passed) / len(sweep.passed),
        "sweep_s": _median(sweep.seconds),
        "paper_speedup_err_pct": sim.paper_error_pct(sweep.rows),
    }


def _timed_sweep(executors, seconds, recorder=None):
    cpu0 = time.process_time()
    sweep = sim.timed_passes(executors, seconds, recorder)
    sweep.cpu_s = time.process_time() - cpu0
    return sweep


def _timed_setup(seed: int):
    start = time.perf_counter()
    executors = sim.build_executors(seed)
    return executors, time.perf_counter() - start


def sweep_untraced(seed: int, seconds: float) -> Result:
    """Set up, run the timed passes, read peak RSS, then set up
    ``SIM_SETUPS - 1`` more times for the set-up median."""
    executors, first = _timed_setup(seed)
    sweep = _timed_sweep(executors, seconds)
    rss = peak_rss_mb()
    setups = [first] + [_timed_setup(seed)[1] for _ in range(SIM_SETUPS - 1)]
    values = _sweep_e2e(sweep)
    values.update(setup_s=_median(setups), peak_rss_mb=rss)
    return _sweep_result(values, [sweep], _inputs_digest(executors),
                         setups=len(setups))


def _inputs_digest(executors) -> str:
    digest = hashlib.sha256()
    for _, x in executors:
        digest.update(x.tobytes())
    return digest.hexdigest()


def _sweep_result(values, sweeps, digest, recorder=None,
                  **samples) -> Result:
    reasons = sum((sweep.reasons for sweep in sweeps), Counter())
    failed = sum(s.passed.count(False) for s in sweeps)
    samples["passes"] = sum(len(s.seconds) for s in sweeps)
    return Result(values, sum(len(s.passed) for s in sweeps), failed,
                  failed, dict(reasons), samples=samples, digest=digest,
                  recorder=recorder)


def sweep_traced(seed: int, seconds: float) -> Result:
    half = seconds / 2.0
    base = _timed_sweep(sim.build_executors(seed), half)
    recorder = SpanRecorder()
    before = _cache_counts()
    with instrument(recorder):
        executors = sim.build_executors(seed)
        recorder.phase = "timed"
        traced = _timed_sweep(executors, half, recorder)
        ratio = _hit_ratio(before, _cache_counts())
        recorder.phase = "probe"
        traffic = sum(memory.traffic_report(e.network, sim.EXEC_ARRAY)
                      .total_dram_bytes for e, _ in executors)
    passes = len(traced.seconds)

    def per_pass(name):
        return sum(s.ms for s in recorder.named(name, "timed")) / passes

    runs = recorder.named("executor.run", "timed")
    rows = traced.rows
    values = {m.name: 0.0 for m in PER_LAYER}
    values.update({
        "latency.estimate_ms_total": per_pass("latency.estimate"),
        "latency.mapping_hit_ratio": ratio,
        "latency.total_cycles": float(sum(r.cycles for r in rows)),
        "latency.fuse_speedup_geomean": sim.fuse_geomean(rows),
        "executor.run_ms": per_pass("executor.run"),
        "executor.host_ns_per_cycle": sum(s.end_ns - s.start_ns for s in runs)
        / sum(s.args["cycles"] for s in runs),
        "functional.gemm_ms_total": per_pass("functional.gemm"),
        "functional.conv1d_ms_total": per_pass("functional.conv1d"),
        "transform.ms_total": per_pass("transform.to_fuseconv"),
        "models.build_ms_total": per_pass("models.build_model"),
        "memory.traffic_mb": traffic / 1e6,
        "latency_p99_ms": _p(base.seconds, 99) * 1000.0,
        "trace.overhead_pct": (_median(traced.seconds)
                               / _median(base.seconds) - 1.0) * 100.0,
    })
    return _sweep_result(values, [base, traced], _inputs_digest(executors),
                         recorder,
                         passes_untraced=len(base.seconds),
                         passes_traced=passes)


#: name → (untraced run, traced run), each called with (seed, seconds).
WORKLOADS = {
    "serve-closed": (partial(serve_untraced, serving.SERVE_CLOSED),
                     partial(serve_traced, serving.SERVE_CLOSED)),
    "serve-open": (partial(serve_untraced, serving.SERVE_OPEN),
                   partial(serve_traced, serving.SERVE_OPEN)),
    "sim-sweep": (sweep_untraced, sweep_traced),
}

"""Metric definitions: names, units, directions and the layer → e2e map.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None  #: end-to-end only
    layer: str = ""                #: per-layer only: the layer measured
    moves: str = ""                #: per-layer only: e2e metric it moves


E2E: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("ok_ratio", "ratio", "higher", 0.02),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_ms_per_req", "ms", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("slo_ok_ratio", "ratio", "higher", 0.05),
    Metric("sweep_s", "s", "lower", 0.25),
    Metric("paper_speedup_err_pct", "%", "lower", 0.01),
)

_SERVE_P50 = "latency_p50_ms (serve-open)"


def _flavors(stem: str, unit: str, better: str,
             moves: Dict[str, str]) -> List[Metric]:
    return [Metric(f"{stem}.{flavor}", unit, better, layer="nn.compile",
                   moves=moves[flavor])
            for flavor in ("exact", "folded", "int8")]


PER_LAYER: Tuple[Metric, ...] = tuple([
    Metric("transport.self_ms_p50", "ms", "lower", layer="serve.transport",
           moves=_SERVE_P50),
    Metric("server.submit_ms_p50", "ms", "lower", layer="serve.server",
           moves="latency_p50_ms (serve-closed), latency_p99_ms (serve-open)"),
    Metric("scheduler.queue_wait_ms_p50", "ms", "lower",
           layer="serve.scheduler",
           moves="latency_p50_ms (serve-closed), latency_p99_ms (serve-open)"),
    Metric("costmodel.calls", "count", "lower", layer="serve.costmodel",
           moves="latency_p50_ms (serve-closed)"),
    Metric("costmodel.ms_total", "ms", "lower", layer="serve.costmodel",
           moves="latency_p50_ms (serve-closed)"),
    Metric("workers.batch_size_mean", "count", "higher", layer="serve.workers",
           moves="throughput_rps (serve-closed)"),
    Metric("workers.execute_ms_p50", "ms", "lower", layer="serve.workers",
           moves="throughput_rps (serve-closed)"),
    Metric("workers.degraded", "count", "lower", layer="serve.workers",
           moves="ok_ratio (all)"),
    Metric("registry.hot_compiles", "count", "lower", layer="serve.registry",
           moves="latency_p99_ms (serve-open)"),
    Metric("registry.compile_ms_total", "ms", "lower", layer="serve.registry",
           moves="setup_s (serving)"),
    *_flavors("compile.ms_per_image", "ms", "lower", {
        "exact": "throughput_rps (serve-closed), latency_p50_ms and "
                 "cpu_ms_per_req (serve-open)",
        "folded": "none served (probe only)",
        "int8": "latency_p50_ms and cpu_ms_per_req (serve-open)"}),
    *_flavors("compile.macs_per_image", "MAC", "lower", {
        "exact": "count", "folded": "count", "int8": "count"}),
    *_flavors("compile.arena_bytes", "B", "lower", {
        "exact": "count, peak_rss_mb", "folded": "count, peak_rss_mb",
        "int8": "count, peak_rss_mb"}),
    Metric("latency.estimate_ms_total", "ms", "lower",
           layer="systolic.latency", moves="sweep_s (sim-sweep)"),
    Metric("latency.mapping_hit_ratio", "ratio", "higher",
           layer="systolic.latency", moves="sweep_s (sim-sweep)"),
    Metric("latency.total_cycles", "cycles", "lower",
           layer="systolic.latency", moves="paper_speedup_err_pct (count)"),
    Metric("latency.fuse_speedup_geomean", "x", "higher",
           layer="systolic.latency", moves="paper_speedup_err_pct (count)"),
    Metric("executor.run_ms", "ms", "lower", layer="systolic.executor",
           moves="sweep_s (sim-sweep)"),
    Metric("executor.host_ns_per_cycle", "ns", "lower",
           layer="systolic.executor", moves="sweep_s (sim-sweep)"),
    Metric("functional.gemm_ms_total", "ms", "lower",
           layer="systolic.functional", moves="sweep_s (sim-sweep)"),
    Metric("functional.conv1d_ms_total", "ms", "lower",
           layer="systolic.functional", moves="sweep_s (sim-sweep)"),
    Metric("transform.ms_total", "ms", "lower", layer="core.transform",
           moves="sweep_s (sim-sweep), setup_s (all)"),
    Metric("models.build_ms_total", "ms", "lower", layer="models",
           moves="sweep_s (sim-sweep), setup_s (all)"),
    Metric("memory.traffic_mb", "MB", "lower", layer="systolic.memory",
           moves="count (modelled DRAM traffic)"),
    Metric("latency_p99_ms", "ms", "lower", layer="end-to-end",
           moves="ungated tail; untraced half of the traced run"),
    Metric("loadgen.lag_p99_ms", "ms", "lower", layer="benchmark",
           moves="latency_p99_ms (serve-open) when late"),
    Metric("trace.overhead_pct", "%", "lower", layer="benchmark",
           moves="none (traced vs untraced e2e)"),
])


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def render(metrics: Tuple[Metric, ...], values: Dict[str, float]) -> Dict:
    """The ``metrics`` object of the result line."""
    return {m.name: {"value": float(values[m.name]), "unit": m.unit}
            for m in metrics}


def layer_table(values: Dict[str, float]) -> str:
    """Per-layer table: layer, metric, value, and the e2e it moves."""
    rows = [("layer", "metric", "value", "unit", "moves")]
    for m in PER_LAYER:
        rows.append((m.layer, m.name, f"{values[m.name]:.6g}", m.unit,
                     m.moves))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row[:4], widths))
        + "  " + row[4] for row in rows)

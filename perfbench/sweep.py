"""The ``sim-sweep`` workload: the paper-reproduction path.

One thread, no serving.  Each pass clears the mapping memo (as a fresh
CLI process would), runs Table I (5 networks × baseline + 4 FuSe
variants, 224 px, 64×64 array) and Fig. 8(d), then pushes one input
through three networks on the cycle-level simulator (vector engine,
16×16 array).  Simulated cycles are deterministic; host seconds are
measured.

The model is unvalidated against hardware: its only reference is the
paper, and :func:`paper_error_pct` reports the distance to it.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

import repro.analysis as analysis
import repro.core as core
import repro.models as models
from repro.nn.graph import GraphExecutor
from repro.serve.request import make_input
from repro.systolic import ArrayConfig
from repro.systolic.executor import ArrayNetworkExecutor
from repro.systolic.latency import clear_mapping_cache

#: Networks run on the cycle-level simulator each pass: (name, variant).
EXECUTED = (("mobilenet_v3_small", None), ("mobilenet_v3_small", "full"),
            ("mobilenet_v1", "half"))
EXEC_RESOLUTION = 32
EXEC_ARRAY = ArrayConfig.square(16)

#: A pass slower than this misses the sweep's latency limit.
PASS_LIMIT_S = 10.0


def build_executors(seed: int) -> List[Tuple[ArrayNetworkExecutor, np.ndarray]]:
    """Set-up: the executed networks, their weights and seeded inputs."""
    out = []
    for index, (name, variant) in enumerate(EXECUTED):
        network = models.build_model(name, resolution=EXEC_RESOLUTION)
        if variant is not None:
            network = core.to_fuseconv(network,
                                       core.FuSeVariant.from_label(variant))
        executor = ArrayNetworkExecutor(
            network, GraphExecutor(network, seed=0), array=EXEC_ARRAY,
            engine="vector", jobs=1)
        x = make_input(tuple(network.input_shape), seed * 8 + index)
        out.append((executor, x.astype(np.float64)))
    return out


def paper_error_pct(rows) -> float:
    """Mean absolute relative error (%) of the FuSe Table I speed-ups
    against the paper's values."""
    errors = [abs(r.speedup - r.paper.speedup) / r.paper.speedup
              for r in rows if r.variant is not None and r.paper is not None]
    return 100.0 * sum(errors) / len(errors)


def fuse_geomean(rows) -> float:
    logs = [math.log(r.speedup) for r in rows if r.variant is not None]
    return math.exp(sum(logs) / len(logs))


def _fingerprint(rows, curves) -> tuple:
    return (tuple((r.network, r.variant, r.cycles) for r in rows),
            tuple((p.network, p.size, p.baseline_cycles, p.fuse_cycles)
                  for points in curves.values() for p in points))


@dataclass
class Sweep:
    """Passes run in one timed phase, with their checks."""

    seconds: List[float] = field(default_factory=list)
    passed: List[bool] = field(default_factory=list)   #: per check
    pass_ok: List[bool] = field(default_factory=list)  #: per pass
    reasons: Counter = field(default_factory=Counter)
    cpu_s: float = 0.0
    rows: list = field(default_factory=list)
    reference: Optional[tuple] = None

    def check(self, ok: bool, reason: str) -> None:
        self.passed.append(ok)
        if not ok:
            self.reasons[reason] += 1


def _untraced(name: str) -> contextlib.nullcontext:
    return contextlib.nullcontext()


def run_pass(executors, sweep: Sweep, recorder=None) -> None:
    """One pass, timed; each of its five operations is one check."""
    scope = recorder.span if recorder is not None else _untraced
    start = time.perf_counter()
    with scope("perfbench.pass"):
        clear_mapping_cache()
        with scope("analysis.table1"):
            rows = analysis.table1()
        with scope("analysis.figure_8d"):
            curves = analysis.figure_8d()
        runs = [executor.run(x) for executor, x in executors]
    sweep.seconds.append(time.perf_counter() - start)

    table, scaling = _fingerprint(rows, curves)
    if sweep.reference is None:
        sweep.reference = (table, scaling)
        sweep.rows = rows
    checked = len(sweep.passed)
    sweep.check(len(rows) == 25 and table == sweep.reference[0],
                "table1_changed")
    sweep.check(scaling == sweep.reference[1], "figure_8d_changed")
    for run in runs:
        sweep.check(bool(run.layers) and run.all_cycles_consistent,
                    "cycle_mismatch")
    sweep.pass_ok.append(all(sweep.passed[checked:]))


def timed_passes(executors, seconds: float, recorder=None) -> Sweep:
    """Run whole passes until ``seconds`` have passed (at least one)."""
    sweep = Sweep()
    stop_at = time.perf_counter() + seconds
    while not sweep.seconds or time.perf_counter() < stop_at:
        run_pass(executors, sweep, recorder)
    return sweep


def analytic_passes(seconds: float) -> Tuple[List[float], float]:
    """(seconds of each pass, paper error %) of analytic-only passes —
    memo cleared, Table I and Fig. 8(d), no cycle-level runs — repeated
    for ``seconds`` (at least 3 passes)."""
    times, error = [], 0.0
    stop_at = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < stop_at:
        start = time.perf_counter()
        clear_mapping_cache()
        rows = analysis.table1()
        analysis.figure_8d()
        times.append(time.perf_counter() - start)
        error = paper_error_pct(rows)
    return times, error

"""Engine comparison harness: reference stepper vs vectorized wavefront.

Times the same workloads through both :class:`SystolicArraySim` engines,
checks byte-exact agreement (values *and* cycle counts), and reports the
speedup per dataflow.  Used two ways:

* ``python -m repro.systolic.bench --size 32 --out results.json`` — ad-hoc
  measurement with a JSON report;
* ``--min-speedup N`` turns it into a regression gate (non-zero exit when
  any workload's speedup drops below ``N``; ``make bench-smoke`` runs it
  with ``N = 5``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .config import ArrayConfig
from .functional import SystolicArraySim


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time in seconds (min is noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _workloads(size: int, seed: int) -> Dict[str, Callable[[SystolicArraySim], object]]:
    """One representative multi-fold problem per dataflow, plus a
    depthwise layer run as one stack of single-column OS GEMMs.

    Shapes are non-multiples of the array size on purpose so both full
    and remainder fold groups are exercised.
    """
    rng = np.random.default_rng(seed)
    m, k, n = 3 * size + 5, 2 * size + 3, 2 * size + 7
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    g, l_in, kernel = 2 * size + 9, 4 * size + 2, 3
    lines = rng.standard_normal((g, l_in))
    filters = rng.standard_normal((g, kernel))
    # A depthwise layer: one single-column 3×3 GEMM per channel, stacked.
    channels = 2 * size + 1
    windows = rng.standard_normal((channels, m, 9))
    taps = rng.standard_normal((channels, 9, 1))
    return {
        "os_gemm": lambda sim: sim.run_gemm(a, b),
        "depthwise": lambda sim: sim.run_gemm(windows, taps),
        "ws_gemm": lambda sim: sim.run_ws_gemm(a, b),
        "is_gemm": lambda sim: sim.run_is_gemm(a, b),
        "conv1d_broadcast": lambda sim: sim.run_conv1d_broadcast(
            lines, filters, stride=1
        ),
    }


def compare_engines(
    size: int = 32,
    repeats: int = 3,
    seed: int = 0,
    array: Optional[ArrayConfig] = None,
) -> Dict[str, object]:
    """Time reference vs vector engines on every dataflow.

    Returns a JSON-ready report::

        {"array": {"rows": R, "cols": C},
         "workloads": {name: {"reference_s": ..., "vector_s": ...,
                              "speedup": ..., "exact_match": true,
                              "cycles": ...}, ...},
         "min_speedup": <worst workload>}
    """
    if array is None:
        array = ArrayConfig.square(size, broadcast=True)
    reference = SystolicArraySim(array, engine="reference")
    vector = SystolicArraySim(array, engine="vector")
    report: Dict[str, object] = {
        "array": {"rows": array.rows, "cols": array.cols},
        "repeats": repeats,
        "workloads": {},
    }
    speedups = []
    for name, run in _workloads(size, seed).items():
        ref_result = run(reference)
        vec_result = run(vector)
        exact = (
            ref_result.values.tobytes() == vec_result.values.tobytes()
            and ref_result.cycles == vec_result.cycles
        )
        ref_s = _best_time(lambda: run(reference), repeats)
        vec_s = _best_time(lambda: run(vector), repeats)
        ratio = ref_s / vec_s if vec_s > 0 else float("inf")
        speedups.append(ratio)
        report["workloads"][name] = {
            "reference_s": ref_s,
            "vector_s": vec_s,
            "speedup": ratio,
            "exact_match": exact,
            "cycles": vec_result.cycles,
        }
    report["min_speedup"] = min(speedups)
    return report


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`compare_engines` report."""
    arr = report["array"]
    lines = [
        f"engine comparison on a {arr['rows']}x{arr['cols']} array "
        f"(best of {report['repeats']}):",
        f"{'workload':<18} {'reference':>11} {'vector':>11} "
        f"{'speedup':>8}  exact",
    ]
    for name, row in report["workloads"].items():
        lines.append(
            f"{name:<18} {row['reference_s'] * 1e3:>9.2f}ms "
            f"{row['vector_s'] * 1e3:>9.2f}ms "
            f"{row['speedup']:>7.1f}x  {'yes' if row['exact_match'] else 'NO'}"
        )
    lines.append(f"minimum speedup: {report['min_speedup']:.1f}x")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare the reference and vector simulator engines"
    )
    parser.add_argument("--size", type=int, default=32,
                        help="array side length (default 32)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best is kept (default 3)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="exit 1 if any workload speeds up less than this")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")
    args = parser.parse_args(argv)

    report = compare_engines(size=args.size, repeats=args.repeats,
                             seed=args.seed)
    print(format_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")

    mismatched = [name for name, row in report["workloads"].items()
                  if not row["exact_match"]]
    if mismatched:
        print(f"FAIL: engines disagree on {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    if report["min_speedup"] < args.min_speedup:
        print(
            f"FAIL: minimum speedup {report['min_speedup']:.1f}x is below "
            f"the {args.min_speedup:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 50 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints
every per-layer metric, prints the per-layer table, and writes the
spans as Chrome-trace JSON under ``.perfbench-out/``.  The last line of
standard output is the JSON result; the line before it stamps the host
fingerprint and run metadata.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOAD_NAMES = ("serve-closed", "serve-open", "sim-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fingerprint(args, result) -> dict:
    """Host fingerprint and run metadata stamped on every result."""
    import numpy as np
    from repro.obs.export import git_sha

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS")},
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": result.samples,
        "stream_digest": result.digest,
        "failures": result.reasons,
    }
    if not args.trace:
        # The tail moves with host load far beyond any bound on a shared
        # 2-core host, so it is printed ungated, with its sample count.
        meta["latency_p99_ms"] = result.metrics["latency_p99_ms"]
    return meta


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    from repro.obs.logs import configure

    import metrics
    from workloads import WORKLOADS

    configure(level="warning")
    untraced, traced = WORKLOADS[args.workload]
    result = (traced if args.trace else untraced)(args.seed, args.seconds)
    meta = fingerprint(args, result)
    if args.trace:
        defs = metrics.PER_LAYER
        print(metrics.layer_table(result.metrics))
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        result.recorder.write(path, meta)
        meta["trace_file"] = os.path.relpath(path, ROOT)
    else:
        defs = metrics.E2E
    print(json.dumps({"perfbench_meta": meta}, default=str))
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics.render(defs, result.metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

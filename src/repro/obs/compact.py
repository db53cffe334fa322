"""Rewrite observability sidecars as compact summaries: ``python -m repro.obs.compact``.

A ``--metrics-out`` snapshot of a long run carries megabytes of
per-layer counter series, and a serving ``--trace-out`` sidecar holds one
trace chain per request.  This tool applies
:func:`repro.obs.export.summarize_metrics` /
:func:`repro.obs.export.summarize_trace` in place::

    python -m repro.obs.compact run.metrics.json run.trace.json

The sidecar kind is inferred from its shape (``traceEvents`` marks a
trace).  Already-compact files (``header.metrics_compact`` /
``otherData.trace_compact``) are left untouched, so the command is
idempotent.  Each rewritten file is revalidated against its schema
before it replaces the original.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .export import (
    summarize_metrics,
    summarize_trace,
    validate_metrics,
    validate_trace,
)


def compact_file(path: Path, keep_per_name: int = 50) -> bool:
    """Summarize one sidecar in place; returns True if it was rewritten."""
    payload = json.loads(path.read_text())
    if "traceEvents" in payload:
        other = payload.get("otherData") or {}
        if other.get("trace_compact"):
            return False
        summary = summarize_trace(payload, keep_per_name=keep_per_name)
        validate_trace(summary)
    else:
        header = payload.get("header") or {}
        if header.get("metrics_compact"):
            return False
        summary = summarize_metrics(payload)
        validate_metrics(summary)
    path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return True


def main(argv=None) -> int:
    paths = [Path(p) for p in (argv if argv is not None else sys.argv[1:])]
    if not paths:
        print("usage: python -m repro.obs.compact FILE.{metrics,trace}.json [...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            before = path.stat().st_size
            changed = compact_file(path)
            after = path.stat().st_size
        except (OSError, ValueError, KeyError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            status = 1
            continue
        state = f"{before:,} -> {after:,} bytes" if changed else "already compact"
        print(f"{path}: {state}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())

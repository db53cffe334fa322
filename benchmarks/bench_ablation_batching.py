"""Extension — batching ablation: does FuSe's advantage survive batching?

Batching amortizes the fold fill/drain overheads that hurt low-reuse
operators, so one could hope large batches rescue the depthwise baseline.
They do not: the single-column mapping wastes *columns*, which batching
(more M rows) cannot fill.  The FuSe speed-up is essentially batch-
independent — relevant for cloud deployments where batch > 1 is the norm.
"""

from repro.analysis import format_table
from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.systolic import PAPER_ARRAY, estimate_network

BATCHES = (1, 2, 4, 8, 16)


def _sweep():
    baseline = build_model("mobilenet_v2")
    fuse = to_fuseconv(baseline, FuSeVariant.HALF, PAPER_ARRAY)
    rows = []
    for batch in BATCHES:
        base = estimate_network(baseline, PAPER_ARRAY, batch=batch).total_cycles
        fast = estimate_network(fuse, PAPER_ARRAY, batch=batch).total_cycles
        rows.append((batch, base, fast, base / fast))
    return rows


def test_batching_ablation(save):
    rows = _sweep()
    text = format_table(
        ["batch", "baseline cycles", "FuSe-Half cycles", "speedup"],
        [[b, f"{base:,}", f"{fast:,}", f"{s:.2f}x"] for b, base, fast, s in rows],
        title="Extension — FuSe-Half speed-up vs batch size, MobileNet-V2 @64x64",
    )
    save("ablation_batching", text)

    speedups = [s for _, _, _, s in rows]
    # The advantage neither collapses nor explodes with batching.
    assert min(speedups) > 0.7 * max(speedups)
    assert all(s > 3 for s in speedups)
    # Per-image latency improves monotonically with batch for both nets.
    per_image_base = [base / b for b, base, _, _ in rows]
    assert per_image_base == sorted(per_image_base, reverse=True)

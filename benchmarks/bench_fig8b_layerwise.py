"""E5 — Fig. 8(b): layer-wise speed-up of MobileNet-V2 FuSe-Full.

Paper: per-layer speed-ups range 2.48×–9.38×, with early layers (larger
input feature maps) benefiting most.
"""

from repro.analysis import LAYERWISE_SPEEDUP_RANGE, format_table, layerwise_speedups
from repro.core import FuSeVariant
from repro.models import build_model


def _blocks():
    return layerwise_speedups(build_model("mobilenet_v2"), FuSeVariant.FULL)


def test_fig8b_layerwise(save):
    blocks = _blocks()
    rows = [
        [
            b.block,
            f"{b.in_shape[1]}x{b.in_shape[2]}x{b.in_shape[0]}",
            f"{b.baseline_cycles:,}",
            f"{b.fuse_cycles:,}",
            f"{b.speedup:.2f}x",
        ]
        for b in blocks
    ]
    lo, hi = min(b.speedup for b in blocks), max(b.speedup for b in blocks)
    title = (
        "Fig 8(b) — layer-wise speed-up, MobileNet-V2 FuSe-Full "
        f"(measured {lo:.2f}x-{hi:.2f}x; paper {LAYERWISE_SPEEDUP_RANGE[0]}x-"
        f"{LAYERWISE_SPEEDUP_RANGE[1]}x)"
    )
    text = format_table(
        ["block", "input", "baseline cycles", "fuse cycles", "speedup"], rows, title
    )
    save("fig8b_layerwise", text)

    assert len(blocks) == 17
    assert all(b.speedup > 1 for b in blocks)
    # Early layers benefit more (paper's observation).
    assert blocks[0].speedup > blocks[-1].speedup

"""Extension — speed-up vs input resolution (complements Fig. 8d).

Fig. 8(b) shows larger feature maps benefiting more from the FuSe
transform; sweeping the *input resolution* on a fixed 64×64 array
aggregates that observation: higher resolution → more columns/rows per 1D
convolution → better utilization → larger speed-up.
"""

from repro.analysis import DEFAULT_RESOLUTIONS, format_table, resolution_curve
from repro.core import FuSeVariant

NETWORKS = ("mobilenet_v1", "mobilenet_v2", "mobilenet_v3_small")


def _sweep():
    return {
        name: resolution_curve(name, FuSeVariant.HALF)
        for name in NETWORKS
    }


def test_resolution_ablation(save):
    data = _sweep()
    rows = [
        [name] + [f"{p.speedup:.2f}x" for p in points]
        for name, points in data.items()
    ]
    text = format_table(
        ["network"] + [f"{r}px" for r in DEFAULT_RESOLUTIONS],
        rows,
        title="Extension — FuSe-Half speed-up vs input resolution (64x64 array)",
    )
    save("ablation_resolution", text)

    for name, points in data.items():
        speedups = [p.speedup for p in points]
        # Higher resolution never hurts, and the span is meaningful.
        assert speedups[-1] >= speedups[0], name
        assert all(s > 1 for s in speedups), name

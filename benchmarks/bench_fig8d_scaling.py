"""E7 — Fig. 8(d): speed-up vs systolic-array size (ablation).

Paper: speed-up grows with array size (baseline under-utilization worsens
on bigger arrays), and the larger MobileNet-V1 gains more on big arrays
than MobileNet-V3-Small.
"""

from repro.analysis import DEFAULT_SIZES, figure_8d, format_table
from repro.core import FuSeVariant


def test_fig8d_scaling(save, save_data):
    # One process-pool task per network (see repro.systolic.parallel).
    data = figure_8d(variant=FuSeVariant.HALF, jobs=2)
    rows = [
        [network] + [f"{p.speedup:.2f}x" for p in points]
        for network, points in data.items()
    ]
    text = format_table(
        ["network"] + [f"{s}x{s}" for s in DEFAULT_SIZES],
        rows,
        title="Fig 8(d) — FuSe-Half speed-up vs array size",
    )
    save("fig8d_scaling", text)
    save_data(
        "fig8d_scaling",
        ["network"] + [str(s) for s in DEFAULT_SIZES],
        [[network] + [f"{p.speedup:.4f}" for p in points]
         for network, points in data.items()],
    )

    for network, points in data.items():
        speedups = [p.speedup for p in points]
        assert speedups[-1] > speedups[0], network  # grows with array size
    # Cloud-vs-edge observation: V1 beats V3-Small on the largest array.
    assert data["mobilenet_v1"][-1].speedup > data["mobilenet_v3_small"][-1].speedup

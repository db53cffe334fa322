"""E6 — Fig. 8(c): latency distribution across operator classes.

Paper: baselines are dominated by depthwise convolution; after the FuSe
transform the distribution shifts to pointwise convolution and the FuSe
operators account for a small share.

Note (recorded in EXPERIMENTS.md): the paper quotes 30–50 % depthwise
share, but its own Table I speed-ups (>4× for Full variants whose
pointwise work *doubles*) require depthwise to dominate much more than
50 % of baseline latency.  Our model reports that internally-consistent
larger share.
"""

from repro.analysis import figure_8c, format_table
from repro.ir import COMPUTE_CLASSES
from repro.models import PAPER_NETWORKS


def test_fig8c_operator_distribution(save):
    results = figure_8c()
    rows = []
    for name, pair in results.items():
        for which in ("baseline", "fuse"):
            dist = pair[which]
            rows.append(
                [name, which]
                + [f"{dist.share(cls) * 100:.1f}%" for cls in COMPUTE_CLASSES]
            )
    text = format_table(
        ["network", "net"] + list(COMPUTE_CLASSES),
        rows,
        title="Fig 8(c) — latency distribution by operator class",
    )
    save("fig8c_operators", text)

    for pair in results.values():
        base, fuse = pair["baseline"], pair["fuse"]
        # Depthwise dominates baselines; it disappears after the transform.
        assert base.share("depthwise") > base.share("pointwise")
        assert fuse.share("depthwise") == 0.0
        # The transformed network is dominated by pointwise, not FuSe ops.
        assert fuse.share("pointwise") > fuse.share("fuse")

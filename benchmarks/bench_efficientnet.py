"""Extension — FuSeConv on EfficientNet-B0.

§I cites EfficientNet's poor scaling on EdgeTPU as prior evidence of the
depthwise/accelerator mismatch; the paper itself evaluates MobileNets and
MnasNet.  This extension applies the same drop-in transform to
EfficientNet-B0: its 16 depthwise MBConv stages exhibit exactly the same
pathology, and FuSe recovers a comparable speed-up band.
"""

from repro.analysis import format_table
from repro.core import ALL_VARIANTS, to_fuseconv
from repro.ir import macs_millions, params_millions
from repro.models import build_model
from repro.systolic import PAPER_ARRAY, estimate_network


def _rows():
    baseline = build_model("efficientnet_b0")
    base = estimate_network(baseline, PAPER_ARRAY)
    rows = [[
        "baseline", f"{macs_millions(baseline):.0f}",
        f"{params_millions(baseline):.2f}", f"{base.total_cycles:,}", "1.00x",
    ]]
    for variant in ALL_VARIANTS:
        net = to_fuseconv(baseline, variant, PAPER_ARRAY)
        latency = estimate_network(net, PAPER_ARRAY)
        rows.append([
            variant.label,
            f"{macs_millions(net):.0f}",
            f"{params_millions(net):.2f}",
            f"{latency.total_cycles:,}",
            f"{base.total_cycles / latency.total_cycles:.2f}x",
        ])
    return rows


def test_efficientnet_transform(save):
    rows = _rows()
    text = format_table(
        ["variant", "MACs(M)", "params(M)", "cycles", "speedup"],
        rows,
        title="Extension — EfficientNet-B0 under the FuSe transform (64x64)",
    )
    save("efficientnet", text)

    speedups = {r[0]: float(r[4].rstrip("x")) for r in rows}
    assert speedups["FuSe-Half"] > speedups["FuSe-Full"] > 1.5

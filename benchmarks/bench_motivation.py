"""E10 — §I motivation: MACs don't predict systolic latency.

Paper: "MobileNet-V2 has 12× fewer computations than ResNet-50, but runs
only 1.3× faster on a systolic array with MACs arranged in a 32×32 array."
"""

from repro.analysis import (
    MOTIVATION_MAC_RATIO,
    MOTIVATION_SPEEDUP,
    format_table,
)
from repro.ir import macs_millions
from repro.models import build_model
from repro.systolic import ArrayConfig, estimate_network


def _measure():
    array = ArrayConfig.square(32)
    v2 = build_model("mobilenet_v2")
    r50 = build_model("resnet50")
    return {
        "mac_ratio": macs_millions(r50) / macs_millions(v2),
        "latency_ratio": (
            estimate_network(r50, array).total_cycles
            / estimate_network(v2, array).total_cycles
        ),
    }


def test_motivation(save):
    result = _measure()
    rows = [
        ["ResNet-50 / MobileNet-V2 MACs", f"{result['mac_ratio']:.1f}x",
         f"{MOTIVATION_MAC_RATIO:.0f}x"],
        ["ResNet-50 / MobileNet-V2 latency @32x32", f"{result['latency_ratio']:.1f}x",
         f"{MOTIVATION_SPEEDUP:.1f}x"],
    ]
    text = format_table(
        ["ratio", "measured", "paper"],
        rows,
        title="SI motivation — incommensurate scaling of depthwise networks",
    )
    save("motivation", text)

    # The latency advantage must be far smaller than the MAC advantage.
    assert result["mac_ratio"] > 10
    assert result["latency_ratio"] < result["mac_ratio"] / 3

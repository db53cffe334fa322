"""Extension — GEMM dataflow ablation: OS vs WS vs IS.

The paper fixes the output-stationary dataflow (§V-A.3).  This ablation
answers the natural question: would a different dataflow have rescued the
depthwise baseline?  No — the pathology is in the operator's shape (N=1
GEMMs), not in the dataflow; all three mappings leave the baseline slow,
and the FuSe networks fast.
"""

from repro.analysis import format_table
from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.systolic import ArrayConfig, estimate_network

DATAFLOWS = ("os", "ws", "is")


def _sweep():
    baseline = build_model("mobilenet_v2")
    results = {}
    for flow in DATAFLOWS:
        array = ArrayConfig(64, 64, dataflow=flow)
        fuse = to_fuseconv(baseline, FuSeVariant.HALF, array)
        base_cycles = estimate_network(baseline, array).total_cycles
        fuse_cycles = estimate_network(fuse, array).total_cycles
        results[flow] = (base_cycles, fuse_cycles, base_cycles / fuse_cycles)
    return results


def test_dataflow_ablation(save):
    results = _sweep()
    rows = [
        [flow, f"{base:,}", f"{fuse:,}", f"{speedup:.2f}x"]
        for flow, (base, fuse, speedup) in results.items()
    ]
    text = format_table(
        ["dataflow", "baseline cycles", "FuSe-Half cycles", "speedup"],
        rows,
        title="Extension — dataflow ablation, MobileNet-V2 @64x64",
    )
    save("ablation_dataflows", text)

    # FuSe wins under every dataflow: the depthwise pathology is not a
    # dataflow artifact.
    for flow, (_, _, speedup) in results.items():
        assert speedup > 3, flow

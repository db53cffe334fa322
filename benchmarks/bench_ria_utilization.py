"""E9 — §III claims: RIA classification and the single-column bound.

Regenerates the formal results of the paper's analysis section:

* matmul / 1D conv / im2col'd conv / pointwise conv are RIAs,
* 2D convolution (and hence depthwise convolution) is not,
* depthwise layers mapped via im2col never exceed 1/cols utilization,
  while FuSe layers do.
"""

from repro.analysis import format_table
from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.ria import ALGORITHMS, check_ria
from repro.systolic import ArrayConfig, depthwise_utilization_bound, utilization_report


def test_ria_classification(save):
    results = {name: check_ria(builder()) for name, builder in ALGORITHMS.items()}
    rows = [
        [name, "RIA (systolic-capable)" if r.is_ria else "NOT an RIA",
         str(len(r.violations))]
        for name, r in results.items()
    ]
    text = format_table(
        ["algorithm", "classification", "violations"],
        rows,
        title="SIII — RIA classification of the paper's algorithms",
    )
    save("ria_classification", text)

    assert results["matmul"].is_ria
    assert results["conv1d"].is_ria
    assert not results["conv2d_direct"].is_ria
    assert not results["conv2d_refactored"].is_ria


def test_utilization_bound(save):
    array = ArrayConfig.square(64)
    net = build_model("mobilenet_v1")
    base = utilization_report(net, array)
    fuse = utilization_report(to_fuseconv(net, FuSeVariant.HALF, array), array)
    bound = depthwise_utilization_bound(array)
    rows = [
        ["depthwise class (baseline)", f"{base.by_class()['depthwise'] * 100:.2f}%"],
        ["single-column bound 1/cols", f"{bound * 100:.2f}%"],
        ["fuse class (transformed)", f"{fuse.by_class()['fuse'] * 100:.2f}%"],
        ["whole net (baseline)", f"{base.overall * 100:.2f}%"],
        ["whole net (FuSe-Half)", f"{fuse.overall * 100:.2f}%"],
    ]
    text = format_table(
        ["quantity", "PE utilization"],
        rows,
        title="SIII-B — depthwise single-column bound vs FuSe utilization (64x64)",
    )
    save("ria_utilization", text)

    assert base.by_class()["depthwise"] <= bound + 1e-12
    assert fuse.by_class()["fuse"] > base.by_class()["depthwise"]
    assert fuse.overall > base.overall

"""The int8 plan's float fallback: every op kind, both ways.

Zoo networks only ever fall back for the float head (``Flatten`` of a
2-d tensor and ``Linear``).  These networks drive every op kind of the
int8 plan both through its integer kernel (``:int8``) and through the
float fallback (``:float``): a grouped ``Conv2D`` has no integer kernel,
so everything downstream of it sees float inputs, while a dense conv
feeds the integer path.  The error bound is the zoo envelope of
``test_int8_plan.py``; the plans here are calibrated on the very batch
they run, so the bound measures rounding rather than the clipping of
values outside a two-batch calibrated range.
"""

import numpy as np
import pytest

from repro.ir import (
    Activation,
    Add,
    BatchNorm,
    ChannelSplit,
    Concat,
    Conv2D,
    Flatten,
    GlobalAvgPool,
    Linear,
    Network,
    PointwiseConv2D,
    Pool2D,
    SqueezeExcite,
)
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor


def _body(net: Network) -> None:
    """Float and int8 branches over an (8, 8, 8) input, merged by mixed ops."""
    net.add(Conv2D(8, kernel=3, padding="same", groups=2), name="grouped",
            inputs=[])
    net.add(Pool2D("max", kernel=3, stride=1, padding="same"), name="f_pool")
    net.add(Activation("hswish"), name="f_act")
    net.add(SqueezeExcite(se_channels=4), name="f_se")
    net.add(ChannelSplit(0, 4), name="f_split")
    net.add(BatchNorm(), name="f_bn", inputs=["grouped"])
    net.add(Pool2D("avg", kernel=2), name="f_avg")

    net.add(Conv2D(8, kernel=3, padding="same"), name="dense", inputs=[])
    net.add(Pool2D("max", kernel=3, stride=1, padding="same"), name="q_pool")
    net.add(Activation("hswish"), name="q_act")
    net.add(SqueezeExcite(se_channels=4), name="q_se")
    net.add(ChannelSplit(4, 8), name="q_split")
    net.add(Add(), name="q_add", inputs=["dense", "q_se"])
    net.add(BatchNorm(), name="q_bn")
    net.add(Pool2D("avg", kernel=2), name="q_avg")
    net.add(Concat(), name="q_cat", inputs=["q_split", "q_split"])

    net.add(Concat(), name="m_cat", inputs=["f_split", "q_split"])
    net.add(Add(), name="m_add", inputs=["m_cat", "q_cat"])
    net.add(PointwiseConv2D(8), name="pw")


def tail_4d_net() -> Network:
    """Ends on an int8 4-d op, so the plan closes with ``Dequantize``."""
    net = Network("fallback_4d", input_shape=(8, 8, 8))
    _body(net)
    net.add(Pool2D("avg", kernel=2), name="pw_avg")
    net.add(Add(), name="sum", inputs=["pw_avg", "q_avg"])
    net.add(Pool2D("avg", kernel=4), name="out")
    return net


def head_net() -> Network:
    """Ends on a float head fed by int8 and float pooled/flattened maps."""
    net = Network("fallback_head", input_shape=(8, 8, 8))
    _body(net)
    net.add(GlobalAvgPool(), name="q_gap", inputs=["pw"])
    net.add(GlobalAvgPool(), name="f_gap", inputs=["f_avg"])
    net.add(Flatten(), name="q_flat", inputs=["q_avg"])
    net.add(Flatten(), name="f_flat", inputs=["f_avg"])
    net.add(Flatten(), name="gap_flat", inputs=["q_gap"])
    net.add(Concat(), name="head",
            inputs=["q_flat", "f_flat", "gap_flat", "f_gap"])
    net.add(Linear(5), name="fc")
    return net


NETWORKS = {"tail_4d": tail_4d_net, "head": head_net}

#: Node name → the label suffix its int8 plan step must carry.
EXPECTED = {
    "grouped": ":float",
    "f_pool": ":float", "f_act": ":float", "f_se": ":float",
    "f_split": ":float", "f_bn": ":float", "f_avg": ":float",
    "dense": ":int8",
    "q_pool": ":int8", "q_act": ":int8", "q_se": ":int8",
    "q_split": ":int8", "q_add": ":int8", "q_bn": ":int8", "q_avg": ":int8",
    "q_cat": ":int8",
    "m_cat": ":float", "m_add": ":float",
    "pw": ":int8",
    "pw_avg": ":int8", "sum": ":int8", "out": ":int8",
    "q_gap": ":int8", "f_gap": ":float",
    "q_flat": ":int8", "f_flat": ":float", "gap_flat": ":float",
    "head": ":float", "fc": ":float",
}


def _compile(net, calibration_data=None):
    executor = GraphExecutor(net, seed=0).eval()
    shape = (2,) + tuple(net.input_shape)
    config = CompileConfig.int8(calibration_data=calibration_data)
    return executor, compile_executor(executor, shape, config)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_every_op_kind_int8_and_float(name):
    net = NETWORKS[name]()
    _, plan = _compile(net)
    kinds = {node.name: node.kind for node in net}
    names = [node.name for node in net]
    body = plan.labels[1:1 + len(names)]
    assert plan.labels[0] == "QuantizeInput"
    # No BN or activation here has a sole foldable producer, so every IR
    # node is its own step, in network order.
    assert body == [kinds[n] + EXPECTED[n] for n in names]
    if name == "tail_4d":
        assert plan.labels[-1] == "Dequantize"
    else:
        assert len(plan.labels) == 1 + len(names)
    assert plan.stats.int8_fallbacks == sum(l.endswith(":float")
                                            for l in body)


def test_both_ways_for_every_kind():
    seen = {}
    for factory in NETWORKS.values():
        _, plan = _compile(factory())
        for label in plan.labels:
            kind, _, how = label.partition(":")
            seen.setdefault(kind, set()).add(how)
    no_integer_kernel = {"Conv2D", "Linear"}
    for kind in ("Pool2D", "Activation", "SqueezeExcite", "ChannelSplit",
                 "BatchNorm", "Add", "Concat", "GlobalAvgPool", "Flatten"):
        assert seen[kind] == {"int8", "float"}, kind
    for kind in no_integer_kernel:
        assert "float" in seen[kind]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_close_to_eager(name):
    net = NETWORKS[name]()
    shape = (2,) + tuple(net.input_shape)
    x = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
    executor, plan = _compile(net, calibration_data=[x])
    ref = executor(Tensor(x)).data
    got = plan.run(x)
    assert got.shape == ref.shape and got.dtype == np.float32
    err = float(np.max(np.abs(got - ref)))
    assert err < 0.1, f"{name}: int8 error {err} out of envelope"

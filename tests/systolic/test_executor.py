"""Whole networks through the functional array: values AND cycles agree.

This is the reproduction's capstone consistency check: the latency the
benchmarks report corresponds to a simulated machine that actually
computes the network's outputs.
"""

import numpy as np
import pytest

from repro.core import ALL_VARIANTS, FuSeVariant, to_fuseconv
from repro.ir import (
    Activation,
    BatchNorm,
    Conv2D,
    DepthwiseConv2D,
    Flatten,
    FuSeConv1D,
    GlobalAvgPool,
    Linear,
    Network,
    PointwiseConv2D,
    SqueezeExcite,
)
from repro.nn import GraphExecutor, Tensor
from repro.systolic import ArrayConfig, estimate_network
from repro.systolic.executor import ArrayNetworkExecutor
from repro.systolic.latency import estimate_layer


def block_net(kernel=3, stride=2, use_se=True) -> Network:
    net = Network("blk", input_shape=(3, 10, 10))
    net.add(Conv2D(6, kernel=3, stride=stride, padding="same"), name="conv")
    net.add(BatchNorm(), name="bn")
    net.add(Activation("relu"), name="act")
    net.add(DepthwiseConv2D(kernel=kernel), name="dw")
    if use_se:
        net.add(SqueezeExcite(se_channels=4), name="se")
    net.add(PointwiseConv2D(8), name="pw")
    net.add(GlobalAvgPool(), name="gap")
    net.add(Flatten(), name="flat")
    net.add(Linear(4), name="fc")
    return net


def run_both(net, array=None, seed=0, x_seed=1):
    model = GraphExecutor(net, seed=seed)
    model.eval()
    executor = ArrayNetworkExecutor(net, model=model, array=array or ArrayConfig.square(8))
    x = np.random.default_rng(x_seed).normal(size=net.input_shape)
    reference = model(Tensor(x[None].astype(np.float32))).data[0]
    run = executor.run(x)
    return reference, run


class TestValueEquivalence:
    def test_baseline_block(self):
        reference, run = run_both(block_net())
        assert np.allclose(run.values.reshape(-1), reference.reshape(-1), atol=1e-5)

    @pytest.mark.parametrize("variant", list(ALL_VARIANTS))
    def test_fuse_variants(self, variant):
        net = to_fuseconv(block_net(), variant)
        reference, run = run_both(net)
        assert np.allclose(run.values.reshape(-1), reference.reshape(-1), atol=1e-5)

    def test_5x5_kernel_and_stride1(self):
        net = to_fuseconv(block_net(kernel=5, stride=1), FuSeVariant.HALF)
        reference, run = run_both(net)
        assert np.allclose(run.values.reshape(-1), reference.reshape(-1), atol=1e-5)


class TestCycleEquivalence:
    def test_layer_cycles_match_analytical_model(self):
        _, run = run_both(block_net())
        assert run.all_cycles_consistent
        for layer in run.layers:
            assert layer.cycles == layer.expected_cycles, layer.name

    def test_network_cycles_match_estimate(self):
        net = to_fuseconv(block_net(), FuSeVariant.HALF)
        array = ArrayConfig.square(8)
        _, run = run_both(net, array=array)
        assert run.cycles == estimate_network(net, array).total_cycles

    def test_fuse_actually_faster_on_the_machine(self):
        """The headline claim demonstrated on the simulated hardware:
        same function, fewer cycles."""
        array = ArrayConfig.square(8)
        base_net = block_net()
        fuse_net = to_fuseconv(base_net, FuSeVariant.HALF)
        _, base_run = run_both(base_net, array=array)
        _, fuse_run = run_both(fuse_net, array=array)
        assert fuse_run.cycles < base_run.cycles


def grouped_net() -> Network:
    net = Network("grp", input_shape=(6, 9, 9))
    net.add(Conv2D(4, kernel=3, padding="same", groups=2), name="g2")
    net.add(BatchNorm(), name="bn")
    net.add(Conv2D(6, kernel=3, stride=2, padding="same", groups=2),
            name="g2s")
    net.add(Conv2D(6, kernel=1, groups=3), name="g3")
    return net


class TestGroupedConv:
    """Conv2D with groups > 1: the groups run as one stacked GEMM."""

    def test_values_match_graph_executor(self):
        reference, run = run_both(grouped_net())
        assert np.allclose(run.values.reshape(-1), reference.reshape(-1),
                           atol=1e-5)

    def test_cycles_match_estimate_layer(self):
        net = grouped_net()
        array = ArrayConfig.square(4)
        _, run = run_both(net, array=array)
        nodes = {node.name: node for node in net}
        assert [layer.name for layer in run.layers] == ["g2", "g2s", "g3"]
        for layer in run.layers:
            assert layer.cycles == estimate_layer(nodes[layer.name],
                                                  array).cycles


def one_layer_net(layer) -> Network:
    net = Network("biased", input_shape=(4, 9, 9))
    net.add(layer, name="layer")
    return net


class TestConvBias:
    """A conv's bias is added to the array's products, as GraphExecutor does."""

    @pytest.mark.parametrize("layer", [
        Conv2D(6, kernel=3, padding="same", bias=True),
        Conv2D(6, kernel=3, padding="same", groups=2, bias=True),
        DepthwiseConv2D(kernel=3, bias=True),
        PointwiseConv2D(5, bias=True),
        FuSeConv1D(axis="row", kernel=3, bias=True),
        FuSeConv1D(axis="col", kernel=3, stride=2, bias=True),
    ], ids=["conv", "grouped", "depthwise", "pointwise", "fuse_row",
            "fuse_col"])
    def test_bias_one_matches_graph_executor(self, layer):
        net = one_layer_net(layer)
        model = GraphExecutor(net, seed=0)
        model.eval()
        bias = model.module_for("layer").bias
        bias.data[...] = 1.0
        x = np.random.default_rng(1).normal(size=net.input_shape)
        reference = model(Tensor(x[None].astype(np.float32))).data[0]
        run = ArrayNetworkExecutor(net, model=model,
                                   array=ArrayConfig.square(4)).run(x)
        assert np.allclose(run.values, reference, atol=1e-5)
        bias.data[...] = 0.0
        unbiased = ArrayNetworkExecutor(net, model=model,
                                        array=ArrayConfig.square(4)).run(x)
        assert np.allclose(run.values - unbiased.values, 1.0)


class TestValidation:
    def test_requires_chw_input(self):
        executor = ArrayNetworkExecutor(block_net(), array=ArrayConfig.square(4))
        with pytest.raises(ValueError, match="C, H, W"):
            executor.run(np.zeros((1, 3, 10, 10)))

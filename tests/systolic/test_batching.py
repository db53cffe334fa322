"""Batched latency estimation (SCALE-Sim batching extension)."""

import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.ir import Conv2D, DepthwiseConv2D, FuSeConv1D, Linear
from repro.models import build_model
from repro.systolic import ArrayConfig, estimate_network, lower_layer


def _lower(layer, in_shape, batch):
    return lower_layer(layer, in_shape, layer.out_shape(in_shape), batch)


class TestLoweringWithBatch:
    def test_conv_m_scales(self):
        layer = Conv2D(8, kernel=3, padding="same")
        single = _lower(layer, (4, 8, 8), 1).ops[0][0]
        batched = _lower(layer, (4, 8, 8), 4).ops[0][0]
        assert batched.m == 4 * single.m
        assert (batched.k, batched.n) == (single.k, single.n)

    def test_fc_batch_becomes_rows(self):
        layer = Linear(10)
        assert _lower(layer, (64, 1, 1), 8).ops[0][0].m == 8

    def test_fuse_bank_scales_convs(self):
        layer = FuSeConv1D(axis="row", kernel=3)
        single = _lower(layer, (4, 8, 8), 1).ops[0][0]
        batched = _lower(layer, (4, 8, 8), 3).ops[0][0]
        assert batched.num_convs == 3 * single.num_convs

    def test_macs_scale_linearly(self):
        layer = DepthwiseConv2D(kernel=3)
        assert _lower(layer, (8, 8, 8), 5).macs == 5 * _lower(layer, (8, 8, 8), 1).macs

    def test_invalid_batch(self):
        with pytest.raises(ValueError, match="batch"):
            _lower(Linear(10), (4, 1, 1), 0)


class TestNetworkBatching:
    @pytest.fixture(scope="class")
    def net(self):
        return build_model("mobilenet_v3_small", resolution=96)

    def test_batching_amortizes_overheads(self, net):
        """Per-image cycles shrink with batch: fill/drain amortize."""
        array = ArrayConfig.square(64)
        single = estimate_network(net, array, batch=1).total_cycles
        batched = estimate_network(net, array, batch=8).total_cycles
        assert batched < 8 * single
        assert batched > 5 * single  # compute still dominates

    def test_fc_layers_benefit_most(self, net):
        """FC layers (M=1) gain the most from batching."""
        array = ArrayConfig.square(64)
        single = estimate_network(net, array, batch=1)
        batched = estimate_network(net, array, batch=8)
        fc1 = single.cycles_by_class()["fc"]
        fc8 = batched.cycles_by_class()["fc"]
        assert fc8 < 3 * fc1  # far below the 8x worst case

    def test_fuse_network_batches_too(self, net):
        array = ArrayConfig.square(64)
        fuse = to_fuseconv(net, FuSeVariant.HALF, array)
        single = estimate_network(fuse, array, batch=1).total_cycles
        batched = estimate_network(fuse, array, batch=4).total_cycles
        assert single < batched < 4 * single

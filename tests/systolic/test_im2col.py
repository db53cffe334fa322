"""Lowering layer specs to array operations preserves MAC counts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    Activation,
    BatchNorm,
    Conv2D,
    DepthwiseConv2D,
    FuSeConv1D,
    Linear,
    PointwiseConv2D,
    SqueezeExcite,
)
from repro.ir.packing import pack_depthwise
from repro.systolic import (
    ArrayConfig,
    Conv1DBank,
    GemmDims,
    batch_stats,
    clear_mapping_cache,
    lower_layer,
    mapping_stats,
)
from repro.systolic.im2col import lower_packed_layer


def _lower(layer, in_shape):
    return lower_layer(layer, in_shape, layer.out_shape(in_shape))


def _macs(lowered):
    """MACs of a lowered layer: each op's MACs times its repeat count."""
    return sum(count * op.macs for op, count in lowered.ops)


class TestMACPreservation:
    """Lowered array ops must perform exactly the layer's MACs."""

    @given(
        c=st.integers(1, 16),
        co=st.integers(1, 16),
        k=st.sampled_from([1, 3, 5]),
        s=st.sampled_from([1, 2]),
        hw=st.integers(6, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_conv(self, c, co, k, s, hw):
        layer = Conv2D(co, kernel=k, stride=s, padding="same")
        in_shape = (c, hw, hw)
        assert _macs(_lower(layer, in_shape)) == layer.macs(in_shape)

    @given(
        c=st.integers(1, 32),
        k=st.sampled_from([3, 5]),
        s=st.sampled_from([1, 2]),
        hw=st.integers(6, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_depthwise(self, c, k, s, hw):
        layer = DepthwiseConv2D(kernel=k, stride=s)
        in_shape = (c, hw, hw)
        assert _macs(_lower(layer, in_shape)) == layer.macs(in_shape)

    @given(
        c=st.integers(1, 32),
        k=st.sampled_from([3, 5]),
        s=st.sampled_from([1, 2]),
        hw=st.integers(6, 20),
        axis=st.sampled_from(["row", "col"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuse(self, c, k, s, hw, axis):
        layer = FuSeConv1D(axis=axis, kernel=k, stride=s)
        in_shape = (c, hw, hw)
        assert _macs(_lower(layer, in_shape)) == layer.macs(in_shape)

    def test_pointwise_and_linear(self):
        assert _macs(_lower(PointwiseConv2D(16), (8, 7, 7))) == 7 * 7 * 8 * 16
        assert _macs(_lower(Linear(10, bias=False), (64, 1, 1))) == 640


class TestMappingStructure:
    def test_standard_conv_single_gemm(self):
        ops = _lower(Conv2D(16, kernel=3, padding="same"), (8, 14, 14)).ops
        assert ops == [(GemmDims(m=196, k=72, n=16), 1)]

    def test_depthwise_single_column_gemms(self):
        """§III-B: one N=1 GEMM per channel — the inefficiency."""
        ops = _lower(DepthwiseConv2D(kernel=3), (32, 14, 14)).ops
        assert ops == [(GemmDims(m=196, k=9, n=1), 32)]

    def test_fuse_row_bank(self):
        ops = _lower(FuSeConv1D(axis="row", kernel=3), (32, 14, 14)).ops
        assert ops == [(Conv1DBank(num_convs=32 * 14, out_length=14, kernel=3,
                                   stride=1), 1)]

    def test_fuse_col_bank(self):
        ops = _lower(FuSeConv1D(axis="col", kernel=3, stride=2), (32, 14, 14)).ops
        assert ops == [(Conv1DBank(num_convs=32 * 7, out_length=7, kernel=3,
                                   stride=2), 1)]

    def test_se_two_fc_gemms(self):
        ops = _lower(SqueezeExcite(se_channels=8), (32, 7, 7)).ops
        assert ops == [(GemmDims(1, 32, 8), 1), (GemmDims(1, 8, 32), 1)]

    def test_grouped_conv_per_group(self):
        ops = _lower(Conv2D(8, kernel=3, groups=2, padding="same"), (4, 8, 8)).ops
        assert ops == [(GemmDims(m=64, k=18, n=4), 2)]

    def test_non_compute_layers_lower_empty(self):
        assert _lower(BatchNorm(), (8, 7, 7)).ops == []
        assert _lower(Activation("relu"), (8, 7, 7)).ops == []


class TestPackedDepthwiseHistogram:
    """A packed depthwise layer lowers to one GEMM per distinct live-tap
    count, and prices exactly like its per-channel GEMM list."""

    @given(
        k_eff=st.lists(st.sampled_from([0, 1, 4, 9]), min_size=1, max_size=24),
        hw=st.integers(3, 12),
        rows=st.sampled_from([4, 8]),
    )
    @settings(max_examples=50, deadline=None)
    def test_mapping_stats_equal_expanded_batch_stats(self, k_eff, hw, rows):
        w2d = np.zeros((len(k_eff), 9))
        for ch, ke in enumerate(k_eff):
            w2d[ch, :ke] = 1.0
        packed = pack_depthwise(w2d, gamma=2)
        assert packed.k_eff == tuple(k_eff)
        layer = DepthwiseConv2D(kernel=3)
        in_shape = (len(k_eff), hw, hw)
        out_shape = layer.out_shape(in_shape)
        lowered = lower_packed_layer(layer, in_shape, out_shape, 1, packed)
        assert len(lowered.ops) == len({ke for ke in k_eff if ke})
        array = ArrayConfig.square(rows)
        expanded = [GemmDims(m=hw * hw, k=ke, n=1) for ke in k_eff if ke]
        clear_mapping_cache()
        got = mapping_stats(layer, in_shape, out_shape, array, packed=packed)
        assert got == batch_stats(expanded, array)

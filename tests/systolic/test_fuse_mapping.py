"""The broadcast dataflow mapping for FuSeConv 1D convolutions (§IV-C)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systolic import (
    ArrayConfig,
    BroadcastFold,
    Conv1DBank,
    GemmDims,
    broadcast_conv1d_stats,
    fallback_conv1d_gemms,
    iter_broadcast_folds,
    os_gemm_stats,
)


class TestBroadcastFold:
    def test_no_weight_skew(self):
        """Broadcast removes the (r-1) weight-skew term of the GEMM fold."""
        bfold = BroadcastFold(r=8, c=4, k=10)
        assert bfold.cycles == (4 - 1) + 10 + 8

    def test_input_reads_account_for_stride(self):
        assert BroadcastFold(r=2, c=4, k=3, stride=1).input_reads == 2 * (3 + 3)
        assert BroadcastFold(r=2, c=4, k=3, stride=2).input_reads == 2 * (6 + 3)


class TestBank:
    def test_macs(self):
        assert Conv1DBank(num_convs=6, out_length=10, kernel=3).macs == 180

    def test_validation(self):
        with pytest.raises(ValueError):
            Conv1DBank(num_convs=0, out_length=10, kernel=3)


class TestStats:
    @given(
        g=st.integers(1, 30),
        l=st.integers(1, 30),
        k=st.sampled_from([3, 5, 7]),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_closed_form_equals_fold_sum(self, g, l, k, rows, cols):
        bank = Conv1DBank(num_convs=g, out_length=l, kernel=k)
        array = ArrayConfig(rows=rows, cols=cols, broadcast=True)
        stats = broadcast_conv1d_stats(bank, array)
        folds = list(iter_broadcast_folds(bank, array))
        assert stats.cycles == sum(f.cycles for f in folds)
        assert stats.folds == len(folds)
        assert stats.active_mac_cycles == bank.macs

    def test_requires_broadcast_links(self):
        bank = Conv1DBank(num_convs=4, out_length=8, kernel=3)
        with pytest.raises(ValueError, match="broadcast"):
            broadcast_conv1d_stats(bank, ArrayConfig(4, 4, broadcast=False))

    def test_spans_both_dimensions(self):
        """§IV-C.3: FuSe utilization is not bounded by 1/cols."""
        array = ArrayConfig.square(8)
        bank = Conv1DBank(num_convs=8, out_length=8, kernel=64)
        stats = broadcast_conv1d_stats(bank, array)
        assert stats.utilization > 1 / array.cols

    def test_beats_fallback(self):
        """The broadcast mapping must beat the single-column im2col mapping."""
        array = ArrayConfig.square(16)
        bank = Conv1DBank(num_convs=32, out_length=28, kernel=3)
        fast = broadcast_conv1d_stats(bank, array).cycles
        slow = sum(
            count * os_gemm_stats(dims, array).cycles
            for dims, count in fallback_conv1d_gemms(bank)
        )
        assert fast < slow / 4


class TestFallback:
    def test_gemm_shape(self):
        bank = Conv1DBank(num_convs=5, out_length=12, kernel=3)
        assert fallback_conv1d_gemms(bank) == [(GemmDims(m=12, k=3, n=1), 5)]

    def test_fallback_preserves_macs(self):
        bank = Conv1DBank(num_convs=5, out_length=12, kernel=3)
        assert sum(count * g.macs for g, count
                   in fallback_conv1d_gemms(bank)) == bank.macs

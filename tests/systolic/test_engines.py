"""Vector wavefront engine vs the reference per-cycle stepper.

The contract is *bit*-exactness, not closeness: the wavefront skew only
decides when PE ``(i, j)`` performs its step-``t`` MAC (cycle
``i + j + t``), never which products accumulate nor their per-PE order,
so the vectorized replay must produce byte-identical values and the very
same cycle counts as stepping the machine — on all four dataflows, for
any fold tiling.  Cycle counts are additionally pinned fold-for-fold to
the analytical :class:`FoldShape` / :class:`BroadcastFold` models.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systolic import (
    ArrayConfig,
    Conv1DBank,
    GemmDims,
    broadcast_conv1d_stats,
    is_gemm_stats,
    ws_gemm_stats,
)
from repro.systolic import functional
from repro.systolic.functional import ENGINES, SystolicArraySim
from repro.systolic.fuse_mapping import BroadcastFold
from repro.systolic.gemm import FoldShape


def _sims(array):
    return (SystolicArraySim(array, engine="vector"),
            SystolicArraySim(array, engine="reference"))


def _tiles(extent, tile):
    for start in range(0, extent, tile):
        yield min(tile, extent - start)


class TestOsGemmEngines:
    @given(
        m=st.integers(1, 12),
        k=st.integers(1, 7),
        n=st.integers(1, 12),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_and_fold_cycles(self, m, k, n, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        vector, reference = _sims(ArrayConfig(rows=rows, cols=cols))
        vec = vector.run_gemm(a, b)
        ref = reference.run_gemm(a, b)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.cycles == ref.cycles
        np.testing.assert_allclose(vec.values, a @ b)
        expected = sum(
            FoldShape(r=r, c=c, k=k).cycles
            for r in _tiles(m, rows) for c in _tiles(n, cols)
        )
        assert vec.cycles == expected

    def test_integer_inputs_stay_integral(self):
        a = np.arange(12).reshape(3, 4)
        b = np.arange(20).reshape(4, 5)
        vector, reference = _sims(ArrayConfig(2, 2))
        vec, ref = vector.run_gemm(a, b), reference.run_gemm(a, b)
        assert vec.values.dtype == ref.values.dtype
        assert np.array_equal(vec.values, a @ b)
        assert vec.values.tobytes() == ref.values.tobytes()


class TestStackedOsGemm:
    """A ``(G, M, K) @ (G, K, N)`` stack is G GEMMs issued back to back:
    same bytes as G separate calls and as the stepper, G × the cycles."""

    @given(
        g=st.integers(1, 5),
        m=st.integers(1, 10),
        k=st.integers(1, 9),
        n=st.integers(1, 6),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        zeros=st.sampled_from([0.0, 0.5, 1.0]),
        block_steps=st.sampled_from([1, 2, 3, None]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_exact_and_fold_cycles(self, g, m, k, n, rows, cols, zeros,
                                       block_steps, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((g, m, k))
        b = rng.standard_normal((g, k, n))
        # Signed zeros: an output summing only -0.0 products must still
        # read +0.0, as the stepper's accumulator starts at +0.0.
        a[rng.random(a.shape) < zeros] = -0.0
        vector, reference = _sims(ArrayConfig(rows=rows, cols=cols))
        # A block of a few steps makes K span several multiply blocks.
        block = functional._PRODUCT_BLOCK if block_steps is None \
            else block_steps * g * m * n
        with mock.patch.object(functional, "_PRODUCT_BLOCK", block):
            vec = vector.run_gemm(a, b)
            singles = [vector.run_gemm(a[i], b[i]) for i in range(g)]
        ref = reference.run_gemm(a, b)
        assert vec.values.shape == (g, m, n)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.values.tobytes() == np.stack(
            [s.values for s in singles]).tobytes()
        np.testing.assert_allclose(vec.values, a @ b)
        fold_sum = sum(
            FoldShape(r=r, c=c, k=k).cycles
            for r in _tiles(m, rows) for c in _tiles(n, cols)
        )
        assert vec.cycles == ref.cycles == g * fold_sum
        assert vec.cycles == sum(s.cycles for s in singles)

    def test_k_spans_several_blocks(self):
        g, m, k, n = 2, 48, 70, 48
        # Steps per block (whole-stack accumulator of g·m·n) is below K.
        assert functional._PRODUCT_BLOCK // (g * m * n) < k
        rng = np.random.default_rng(7)
        a = rng.standard_normal((g, m, k))
        b = rng.standard_normal((g, k, n))
        vector, reference = _sims(ArrayConfig(16, 16))
        vec, ref = vector.run_gemm(a, b), reference.run_gemm(a, b)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.cycles == ref.cycles

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        a = np.full((3, 4, 5), -0.0)
        b = np.ones((3, 5, 2))
        vector, reference = _sims(ArrayConfig(2, 2))
        vec, ref = vector.run_gemm(a, b), reference.run_gemm(a, b)
        assert not np.signbit(vec.values).any()
        assert vec.values.tobytes() == ref.values.tobytes()

    def test_integer_inputs_stay_integral(self):
        a = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        b = np.arange(2 * 4 * 5).reshape(2, 4, 5)
        vector, reference = _sims(ArrayConfig(2, 2))
        vec, ref = vector.run_gemm(a, b), reference.run_gemm(a, b)
        assert vec.values.dtype == ref.values.dtype == a.dtype
        assert np.array_equal(vec.values, a @ b)
        assert vec.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 3, 4), (3, 4, 5)),   # stack sizes differ
        ((2, 3, 4), (2, 5, 5)),   # K differs
        ((2, 3, 4), (4, 5)),      # stacked @ plain
    ])
    def test_shape_mismatch_rejected(self, a_shape, b_shape):
        sim = SystolicArraySim(ArrayConfig(2, 2))
        with pytest.raises(ValueError, match="disagree"):
            sim.run_gemm(np.zeros(a_shape), np.zeros(b_shape))


class TestWsIsGemmEngines:
    @given(
        m=st.integers(1, 10),
        k=st.integers(1, 8),
        n=st.integers(1, 10),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_ws_bit_exact_and_analytical_cycles(self, m, k, n, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        array = ArrayConfig(rows=rows, cols=cols, dataflow="ws")
        vector, reference = _sims(array)
        vec = vector.run_ws_gemm(a, b)
        ref = reference.run_ws_gemm(a, b)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.cycles == ref.cycles
        np.testing.assert_allclose(vec.values, a @ b)
        assert vec.cycles == ws_gemm_stats(GemmDims(m, k, n), array).cycles

    @given(
        m=st.integers(1, 10),
        k=st.integers(1, 8),
        n=st.integers(1, 10),
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_bit_exact_and_analytical_cycles(self, m, k, n, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        array = ArrayConfig(rows=rows, cols=cols, dataflow="is")
        vector, reference = _sims(array)
        vec = vector.run_is_gemm(a, b)
        ref = reference.run_is_gemm(a, b)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.cycles == ref.cycles
        np.testing.assert_allclose(vec.values, a @ b)
        assert vec.cycles == is_gemm_stats(GemmDims(m, k, n), array).cycles


class TestConv1dEngines:
    @given(
        g=st.integers(1, 10),
        k=st.integers(1, 4),
        extra=st.integers(0, 12),
        stride=st.integers(1, 3),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_and_fold_cycles(self, g, k, extra, stride, rows, cols,
                                       seed):
        rng = np.random.default_rng(seed)
        l_out = 1 + extra
        l_in = (l_out - 1) * stride + k
        x = rng.standard_normal((g, l_in))
        w = rng.standard_normal((g, k))
        array = ArrayConfig(rows=rows, cols=cols, broadcast=True)
        vector, reference = _sims(array)
        vec = vector.run_conv1d_broadcast(x, w, stride=stride)
        ref = reference.run_conv1d_broadcast(x, w, stride=stride)
        assert vec.values.tobytes() == ref.values.tobytes()
        assert vec.cycles == ref.cycles
        expected_values = np.stack([
            [(x[i, j * stride:j * stride + k] * w[i]).sum()
             for j in range(l_out)]
            for i in range(g)
        ])
        np.testing.assert_allclose(vec.values, expected_values)
        expected_cycles = sum(
            BroadcastFold(r=r, c=c, k=k, stride=stride).cycles
            for r in _tiles(g, rows) for c in _tiles(l_out, cols)
        )
        assert vec.cycles == expected_cycles
        bank = Conv1DBank(num_convs=g, out_length=l_out, kernel=k,
                          stride=stride)
        assert vec.cycles == broadcast_conv1d_stats(bank, array).cycles


class TestEngineSelection:
    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            SystolicArraySim(ArrayConfig(2, 2), engine="turbo")

    def test_engines_constant(self):
        assert set(ENGINES) == {"vector", "reference"}

    def test_observer_forces_reference(self):
        cycles_seen = []
        sim = SystolicArraySim(
            ArrayConfig(2, 2),
            observer=lambda *args, **kwargs: cycles_seen.append(1),
            engine="vector",
        )
        assert sim.engine == "reference"
        sim.run_gemm(np.ones((2, 2)), np.ones((2, 2)))
        assert cycles_seen  # the per-cycle hook really fired

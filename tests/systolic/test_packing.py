"""Packed systolic mappings: kernels, cache keys, and the executor."""

import numpy as np
import pytest

from repro.ir import (
    BatchNorm,
    Conv2D,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool,
    Network,
    PointwiseConv2D,
)
from repro.core.reference import im2col
from repro.ir.packing import (
    NetworkPacking,
    PackedMapping,
    magnitude_mask,
    pack_depthwise,
    pack_fuse1d,
    pack_gemm_columns,
)
from repro.nn import CompileConfig, GraphExecutor
from repro.nn.passes import Pipeline, apply_pruning
from repro.systolic import ArrayConfig
from repro.systolic.diskcache import cache_key, estimate_network_cached
from repro.systolic.executor import ArrayNetworkExecutor
from repro.systolic.functional import SystolicArraySim
from repro.systolic.latency import _cache_key, estimate_network, mapping_stats


def pruned_gemm(k=20, n=16, sparsity=0.8, gamma=6, seed=0):
    """A pruned K×N weight matrix and its consistent packed mapping."""
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(k, n))
    b[~magnitude_mask(b, sparsity)] = 0.0
    mapping, keep = pack_gemm_columns(b, gamma=gamma, conflict="prune")
    b[~keep] = 0.0
    return b, mapping


class TestPackedGemmKernel:
    def test_values_bitwise_equal_dense(self):
        b, mapping = pruned_gemm()
        a = np.random.default_rng(1).normal(size=(7, b.shape[0]))
        sim = SystolicArraySim(ArrayConfig(4, 4))
        dense = sim.run_gemm(a, b)
        packed = sim.run_packed_gemm(a, b, mapping)
        # == semantics (not tobytes): skipped +0.0 terms may flip the
        # sign of an exactly-zero accumulator.
        assert np.array_equal(dense.values, packed.values)
        assert packed.cycles < dense.cycles

    def test_gamma1_identity_reproduces_dense_cycles(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=(9, 11))
        mapping, keep = pack_gemm_columns(b, gamma=1)
        assert keep.all()
        a = rng.normal(size=(5, 9))
        sim = SystolicArraySim(ArrayConfig(4, 4))
        dense = sim.run_gemm(a, b)
        packed = sim.run_packed_gemm(a, b, mapping)
        assert packed.cycles == dense.cycles
        assert np.array_equal(dense.values, packed.values)

    def test_mismatched_weights_rejected(self):
        b, mapping = pruned_gemm()
        a = np.zeros((3, b.shape[0]))
        sim = SystolicArraySim(ArrayConfig(4, 4))
        # Restoring a pruned weight creates a support conflict (or a live
        # dropped column) the kernel must refuse to schedule.
        bad = b.copy()
        bad[bad == 0] = 1.0
        with pytest.raises(ValueError, match="do not match the packed"):
            sim.run_packed_gemm(a, bad, mapping)

    def test_wrong_shape_mapping_rejected(self):
        b, mapping = pruned_gemm()
        sim = SystolicArraySim(ArrayConfig(4, 4))
        with pytest.raises(ValueError, match="mapping is for"):
            sim.run_packed_gemm(np.zeros((3, 8)), np.zeros((8, 5)), mapping)

    def test_oversized_group_rejected(self):
        b = np.eye(4)
        mapping = PackedMapping(
            kind="gemm", gamma=1, conflict="prune", n_orig=4, n_packed=1,
            k=4, nnz=4, total=16, dropped=0, conflicts_pruned=0,
            groups=((0, 1, 2, 3),))
        sim = SystolicArraySim(ArrayConfig(4, 4))
        with pytest.raises(ValueError, match="exceeds gamma"):
            sim.run_packed_gemm(np.zeros((2, 4)), b, mapping)


class TestPackedConv1dKernel:
    def test_values_match_numpy_on_live_taps(self):
        rng = np.random.default_rng(3)
        k, g, l_in = 5, 6, 14
        w = rng.normal(size=(g, k))
        taps = (0, 2, 4)
        dead = [t for t in range(k) if t not in taps]
        w[:, dead] = 0.0
        x = rng.normal(size=(g, l_in))
        sim = SystolicArraySim(ArrayConfig(4, 4, broadcast=True))
        run = sim.run_conv1d_packed(x, w, stride=1, taps=taps)
        l_out = l_in - k + 1
        want = np.zeros((g, l_out))
        for t in range(k):
            want += w[:, t, np.newaxis] * x[:, t:t + l_out]
        assert np.allclose(run.values, want)

    def test_requires_broadcast_links(self):
        sim = SystolicArraySim(ArrayConfig(4, 4, broadcast=False))
        with pytest.raises(ValueError, match="broadcast"):
            sim.run_conv1d_packed(np.zeros((2, 8)), np.zeros((2, 3)),
                                  stride=1, taps=(0,))

    def test_dead_tap_weight_rejected(self):
        sim = SystolicArraySim(ArrayConfig(4, 4, broadcast=True))
        w = np.ones((2, 3))
        with pytest.raises(ValueError, match="outside the live taps"):
            sim.run_conv1d_packed(np.zeros((2, 8)), w, stride=1, taps=(1,))

    def test_bad_taps_rejected(self):
        sim = SystolicArraySim(ArrayConfig(4, 4, broadcast=True))
        w = np.zeros((2, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.run_conv1d_packed(np.zeros((2, 8)), w, stride=1, taps=(2, 1))

    def test_fuse1d_grouping_covers_live_channels(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(10, 3))
        w[~magnitude_mask(w, 0.6)] = 0.0
        w[7] = 0.0  # force one dead channel
        mapping = pack_fuse1d(w, gamma=8)
        covered = [c for _, chans in mapping.tap_groups for c in chans]
        assert sorted(covered) == sorted(set(covered))
        assert mapping.n_packed == len(covered)
        assert mapping.dropped == 10 - len(covered)
        for taps, chans in mapping.tap_groups:
            for ch in chans:
                assert tuple(np.flatnonzero(w[ch])) == taps


def packable_net() -> Network:
    net = Network("pk", input_shape=(3, 10, 10))
    net.add(Conv2D(8, kernel=3, stride=2, padding="same"), name="conv")
    net.add(BatchNorm(), name="bn")
    net.add(DepthwiseConv2D(kernel=3), name="dw")
    net.add(PointwiseConv2D(8), name="pw")
    net.add(GlobalAvgPool(), name="gap")
    net.add(Flatten(), name="flat")
    return net


def net_packing(net, sparsity=0.75, gamma=8, seed=0):
    executor = GraphExecutor(net, seed=seed)
    executor.eval()
    config = CompileConfig.sparse(sparsity=sparsity, gamma=gamma)
    tf = Pipeline.from_config(config).run(executor, net, config)
    return executor, tf


class TestLatencyCacheKeys:
    def test_packing_is_part_of_the_memo_key(self):
        """Regression: the pre-packing key collided dense and packed.

        The layer spec carries no sparsity, so keying on
        ``(layer, shapes, array, batch)`` alone returns the *dense*
        cached stats for a packed estimate of the same layer.  Provoke
        exactly that order — dense first (populates the memo), packed
        second — and check the packed estimate did not take the hit.
        """
        net = packable_net()
        _, tf = net_packing(net)
        node = next(n for n in net if n.name == "pw")
        packed = tf.packing.get("pw")
        assert packed is not None and packed.columns_combined > 0
        array = ArrayConfig(8, 8, broadcast=True)
        in_shape = net.input_shape_of(node.name) \
            if hasattr(net, "input_shape_of") else None
        # Key inequality is the contract the memo relies on.
        dense_key = _cache_key(node.layer, (8, 5, 5), (8, 5, 5), array, 1,
                               None)
        packed_key = _cache_key(node.layer, (8, 5, 5), (8, 5, 5), array, 1,
                                packed)
        assert dense_key != packed_key
        dense = mapping_stats(node.layer, (8, 5, 5), (8, 5, 5), array)
        stats = mapping_stats(node.layer, (8, 5, 5), (8, 5, 5), array,
                              packed=packed)
        assert stats.cycles != dense.cycles

    def test_estimates_differ_dense_vs_packed(self):
        net = packable_net()
        _, tf = net_packing(net)
        array = ArrayConfig(8, 8, broadcast=True)
        dense = estimate_network(net, array)
        packed = estimate_network(net, array, packing=tf.packing)
        assert packed.total_cycles < dense.total_cycles


class TestDiskCacheKeys:
    def test_packing_fingerprint_in_the_key(self):
        net = packable_net()
        _, tf = net_packing(net)
        array = ArrayConfig(8, 8, broadcast=True)
        assert cache_key(net, array) != cache_key(net, array,
                                                  packing=tf.packing)
        # Different γ → different packing → different key.
        _, tf4 = net_packing(net, gamma=4)
        assert cache_key(net, array, packing=tf.packing) != cache_key(
            net, array, packing=tf4.packing)

    def test_cached_estimates_keep_packings_apart(self, tmp_path):
        net = packable_net()
        _, tf = net_packing(net)
        array = ArrayConfig(8, 8, broadcast=True)
        dense = estimate_network_cached(net, array, cache_dir=tmp_path)
        packed = estimate_network_cached(net, array, cache_dir=tmp_path,
                                         packing=tf.packing)
        assert packed.total_cycles < dense.total_cycles
        # Second reads hit the disk entries and stay distinct.
        again_dense = estimate_network_cached(net, array, cache_dir=tmp_path)
        again_packed = estimate_network_cached(net, array,
                                               cache_dir=tmp_path,
                                               packing=tf.packing)
        assert again_dense.total_cycles == dense.total_cycles
        assert again_packed.total_cycles == packed.total_cycles


class TestPackedExecutor:
    def test_end_to_end_values_and_cycles(self):
        net = packable_net()
        executor, tf = net_packing(net, gamma=4)
        apply_pruning(executor, tf)
        array = ArrayConfig(8, 8, broadcast=True)
        x = np.random.default_rng(5).normal(
            size=net.input_shape).astype(np.float32)
        dense = ArrayNetworkExecutor(net, model=executor, array=array).run(x)
        packed = ArrayNetworkExecutor(net, model=executor, array=array,
                                      packing=tf.packing).run(x)
        assert np.array_equal(dense.values, packed.values)
        assert packed.all_cycles_consistent
        assert packed.cycles < dense.cycles

    def test_unpruned_weights_rejected(self):
        net = packable_net()
        executor, tf = net_packing(net, gamma=4)
        # Deliberately skip apply_pruning: the executor's weights still
        # hold the pruned values, so packed execution must refuse.
        array = ArrayConfig(8, 8, broadcast=True)
        x = np.random.default_rng(6).normal(
            size=net.input_shape).astype(np.float32)
        with pytest.raises(ValueError):
            ArrayNetworkExecutor(net, model=executor, array=array,
                                 packing=tf.packing).run(x)


class TestPackedDepthwiseExecutor:
    """Live-tap depthwise channels stacked by ``k_eff`` equal the
    per-channel schedule: one single-column GEMM per live channel."""

    @staticmethod
    def mixed_weights():
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 9))
        w[0] = 0.0                    # k_eff 0: no array cycles
        w[1, [1, 2, 5, 7, 8]] = 0.0   # k_eff 4
        w[3, [0, 3, 4, 6, 8]] = 0.0   # k_eff 4, another support
        w[4, 1:] = 0.0                # k_eff 1
        return w                      # channels 2 and 5: full K

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_matches_per_channel_loop(self, gamma):
        net = Network("dwpk", input_shape=(6, 7, 7))
        net.add(DepthwiseConv2D(kernel=3, stride=2), name="dw")
        model = GraphExecutor(net, seed=0)
        w = self.mixed_weights()
        model.module_for("dw").weight.data[...] = w.reshape(6, 1, 3, 3)
        mapping = pack_depthwise(w, gamma=gamma)
        if gamma == 2:
            assert sorted(set(mapping.k_eff)) == [0, 1, 4, 9]
        packing = NetworkPacking(gamma=gamma, conflict="prune",
                                 layers=(("dw", mapping),))
        array = ArrayConfig(4, 4)
        x = np.random.default_rng(9).normal(size=net.input_shape)
        run = ArrayNetworkExecutor(net, model=model, array=array,
                                   packing=packing).run(x)

        # The per-channel schedule, written out channel by channel.
        w = model.module_for("dw").weight.data.astype(np.float64)
        w = w.reshape(6, 9)
        sim = SystolicArraySim(array)
        want = np.zeros((6, 16))
        cycles = 0
        for ch, ke in enumerate(mapping.k_eff):
            if ke == 0:
                continue
            taps = np.arange(9) if ke == 9 else np.flatnonzero(w[ch])
            cols = im2col(x[ch:ch + 1], (3, 3), (2, 2), "same")
            one = sim.run_gemm(cols[:, taps], w[ch, taps].reshape(-1, 1))
            want[ch] = one.values.reshape(-1)
            cycles += one.cycles
        assert run.values.tobytes() == want.reshape(6, 4, 4).tobytes()
        assert run.cycles == cycles
        assert run.all_cycles_consistent

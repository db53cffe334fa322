"""The pass pipeline: specs, pruning, packing, and bit-exactness."""

import numpy as np
import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.ir import (
    Activation,
    BatchNorm,
    Conv2D,
    DepthwiseConv2D,
    Flatten,
    GlobalAvgPool,
    Linear,
    Network,
    PointwiseConv2D,
)
from repro.ir.packing import magnitude_mask, pack_gemm_columns
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor
from repro.nn.passes import Pipeline, apply_pruning
from repro.systolic import ArrayConfig, estimate_network
from repro.systolic.executor import ArrayNetworkExecutor


def small_net() -> Network:
    net = Network("small", input_shape=(3, 12, 12))
    net.add(Conv2D(8, kernel=3, stride=2, padding="same"), name="conv")
    net.add(BatchNorm(), name="bn")
    net.add(Activation("relu"), name="act")
    net.add(DepthwiseConv2D(kernel=3), name="dw")
    net.add(PointwiseConv2D(10), name="pw")
    net.add(GlobalAvgPool(), name="gap")
    net.add(Flatten(), name="flat")
    net.add(Linear(4), name="fc")
    return net


def run_pipeline(net, config, seed=0):
    executor = GraphExecutor(net, seed=seed)
    executor.eval()
    tf = Pipeline.from_config(config).run(executor, net, config)
    return executor, tf


class TestPipelineSpecs:
    """Every CompileConfig preset is just a pipeline spec."""

    def test_exact_is_empty(self):
        assert CompileConfig.exact().pipeline_spec() == ()

    def test_folded_runs_the_first_three(self):
        assert CompileConfig().pipeline_spec() == (
            "fold_bn", "fuse_activations", "constant_fold")

    def test_int8_appends_quantize(self):
        assert CompileConfig.int8().pipeline_spec() == (
            "fold_bn", "fuse_activations", "constant_fold", "quantize_int8")

    def test_sparse_inserts_prune_and_pack(self):
        assert CompileConfig.sparse().pipeline_spec() == (
            "fold_bn", "fuse_activations", "constant_fold",
            "magnitude_prune", "column_combine")

    def test_sparse_int8_is_the_full_pipeline(self):
        assert CompileConfig.sparse_int8().pipeline_spec() == (
            "fold_bn", "fuse_activations", "constant_fold",
            "magnitude_prune", "column_combine", "quantize_int8")

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown passes"):
            Pipeline(["fold_bn", "loop_unroll"])

    def test_pass_results_are_ordered_and_timed(self):
        _, tf = run_pipeline(small_net(), CompileConfig.sparse(0.5, gamma=4))
        names = [r.name for r in tf.results]
        assert names == list(CompileConfig.sparse(0.5, gamma=4)
                             .pipeline_spec())
        assert all(r.ms >= 0.0 for r in tf.results)


class TestMagnitudePrune:
    def test_mask_has_exact_zero_count(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(40, 25))
        keep = magnitude_mask(w, 0.75)
        assert int(keep.size - keep.sum()) == round(0.75 * w.size)
        # The survivors are exactly the largest magnitudes.
        assert np.abs(w[keep]).min() >= np.abs(w[~keep]).max()

    def test_transform_hits_the_target(self):
        _, tf = run_pipeline(small_net(), CompileConfig.sparse(0.6, gamma=1))
        assert tf.sparsity == pytest.approx(0.6, abs=0.02)
        prune = next(r for r in tf.results if r.name == "magnitude_prune")
        assert prune.params_removed == sum(
            int(m.size - m.sum()) for m in tf.masks.values())

    def test_linear_head_excluded_by_default(self):
        _, tf = run_pipeline(small_net(), CompileConfig.sparse(0.5, gamma=1))
        assert "fc" not in tf.masks

    def test_layer_sparsity_opts_the_head_in(self):
        config = CompileConfig.sparse(0.5, gamma=1,
                                      layer_sparsity=[("fc", 0.5)])
        _, tf = run_pipeline(small_net(), config)
        mask = tf.masks["fc"]
        assert int(mask.size - mask.sum()) == round(0.5 * mask.size)

    def test_unknown_layer_override_raises(self):
        config = CompileConfig.sparse(0.5, layer_sparsity=[("nope", 0.5)])
        with pytest.raises(ValueError, match="unknown layers"):
            run_pipeline(small_net(), config)

    def test_global_scope_prunes_network_wide(self):
        config = CompileConfig.sparse(0.7, gamma=1, scope="global")
        _, tf = run_pipeline(small_net(), config)
        zeros = sum(int(m.size - m.sum()) for m in tf.masks.values())
        total = sum(m.size for m in tf.masks.values())
        assert zeros == round(0.7 * total)

    def test_apply_pruning_zeroes_the_modules(self):
        executor, tf = run_pipeline(small_net(),
                                    CompileConfig.sparse(0.5, gamma=1))
        removed = apply_pruning(executor, tf)
        assert removed > 0
        for name, mask in tf.masks.items():
            w = executor.module_for(name).weight.data
            assert not np.any(w.reshape(-1)[~np.asarray(mask, bool)
                                            .reshape(-1)])


class TestColumnCombine:
    def test_packing_covers_prunable_layers(self):
        _, tf = run_pipeline(small_net(), CompileConfig.sparse(0.75, gamma=8))
        assert tf.packing is not None
        assert {name for name, _ in tf.packing.layers} == {"conv", "dw", "pw"}
        assert tf.packing.columns_combined > 0

    def test_pack_reaches_an_idempotent_fixpoint(self):
        """Pack → drop conflicts converges, then re-packing is a no-op.

        One greedy re-pack of a conflict-pruned matrix may regroup the
        now-sparser columns and find *new* conflicts, but every such
        round strictly shrinks nnz, so iteration reaches a conflict-free
        packing — and packing a matrix it does not modify is exactly
        reproducible (the greedy is deterministic).
        """
        rng = np.random.default_rng(1)
        w = rng.normal(size=(30, 24))
        w[magnitude_mask(w, 0.8) == False] = 0.0  # noqa: E712
        mapping = None
        for _ in range(20):
            mapping, keep = pack_gemm_columns(w, gamma=6, conflict="prune")
            if mapping.conflicts_pruned == 0:
                break
            assert int(keep.sum()) < int((w != 0).sum())  # strict progress
            w[~keep] = 0.0
        assert mapping.conflicts_pruned == 0
        again, keep2 = pack_gemm_columns(w, gamma=6, conflict="prune")
        assert again == mapping
        assert np.array_equal(keep2, keep)

    def test_gamma1_is_the_identity_packing(self):
        _, tf = run_pipeline(small_net(), CompileConfig.sparse(0.75, gamma=1))
        for _, m in tf.packing.layers:
            assert m.gamma == 1
            assert m.n_packed == m.n_orig
            assert m.dropped == 0
            assert m.columns_combined == 0

    def test_gamma1_schedule_matches_dense_cycles(self):
        net = small_net()
        _, tf = run_pipeline(net, CompileConfig.sparse(0.75, gamma=1))
        array = ArrayConfig(8, 8, broadcast=True)
        dense = estimate_network(net, array)
        packed = estimate_network(net, array, packing=tf.packing)
        assert packed.total_cycles == dense.total_cycles

    def test_packed_schedule_is_faster(self):
        net = small_net()
        _, tf = run_pipeline(net, CompileConfig.sparse(0.75, gamma=8))
        array = ArrayConfig(8, 8, broadcast=True)
        dense = estimate_network(net, array)
        packed = estimate_network(net, array, packing=tf.packing)
        assert packed.total_cycles < dense.total_cycles


class TestPackedBitExactness:
    """Packed array execution ≡ the pruned dense network, bit for bit."""

    @pytest.mark.parametrize("fuse", [False, True])
    def test_packed_run_matches_pruned_dense(self, fuse):
        net = small_net()
        if fuse:
            net = to_fuseconv(net, FuSeVariant.FULL)
        config = CompileConfig.sparse(0.75, gamma=4)
        executor, tf = run_pipeline(net, config)
        apply_pruning(executor, tf)
        array = ArrayConfig(8, 8, broadcast=True)
        x = np.random.default_rng(2).normal(
            size=net.input_shape).astype(np.float32)
        dense = ArrayNetworkExecutor(net, model=executor, array=array).run(x)
        packed = ArrayNetworkExecutor(net, model=executor, array=array,
                                      packing=tf.packing).run(x)
        # == (not tobytes): skipping exact +0.0 terms may flip zero signs.
        assert np.array_equal(dense.values, packed.values)
        assert packed.cycles < dense.cycles

    def test_sparse_plan_matches_pruned_eager(self):
        net = small_net()
        config = CompileConfig.sparse(0.75, gamma=4)
        executor, tf = run_pipeline(net, config)
        apply_pruning(executor, tf)
        shape = (2,) + tuple(net.input_shape)
        plan = compile_executor(executor, shape, config)
        assert plan.packing is not None
        assert plan.stats.sparsity > 0.7
        assert plan.stats.packed_columns == tf.packing.packed_columns
        x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        eager = executor(Tensor(x)).data
        assert np.allclose(plan.run(x), eager, atol=1e-5)

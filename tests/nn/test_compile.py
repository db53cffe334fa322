"""Compiled inference plans: bit-exactness, folding tolerance, arena reuse.

The contract under test (docs/runtime.md):

* ``CompileConfig.exact()`` — no folding/fusion — must be **bit-identical**
  to the eager eval-mode forward of the same executor;
* the default config (BN folding + activation fusion + constant folding)
  must stay within 1e-4 of eager;
* the arena is reused across runs, so repeated/interleaved calls must not
  contaminate each other.
"""

import numpy as np
import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.ir import Network, PointwiseConv2D
from repro.models import build_model
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor

from .test_graph import full_vocabulary_net


@pytest.fixture
def rng():
    return np.random.default_rng(9)


def _eager(executor, x):
    return executor(Tensor(x)).data


def _networks():
    yield "vocab", full_vocabulary_net()
    yield "v3s", build_model("mobilenet_v3_small", num_classes=10, resolution=32)
    yield "v3s_fuse", to_fuseconv(
        build_model("mobilenet_v3_small", num_classes=10, resolution=32),
        FuSeVariant.FULL,
    )


class TestBitExactness:
    @pytest.mark.parametrize("name,net", list(_networks()),
                             ids=[n for n, _ in _networks()])
    def test_exact_plan_is_bit_identical(self, rng, name, net):
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        batch = 2
        shape = (batch,) + tuple(net.input_shape)
        plan = compile_executor(executor, shape, CompileConfig.exact())
        x = rng.normal(size=shape).astype(np.float32)
        expected = _eager(executor, x)
        got = plan.run(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name,net", list(_networks()),
                             ids=[n for n, _ in _networks()])
    def test_folded_plan_within_tolerance(self, rng, name, net):
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = (2,) + tuple(net.input_shape)
        plan = compile_executor(executor, shape)  # default: fold everything
        x = rng.normal(size=shape).astype(np.float32)
        err = np.max(np.abs(
            plan.run(x).astype(np.float64) - _eager(executor, x).astype(np.float64)
        ))
        assert err <= 1e-4

    def test_executor_compile_method(self, rng):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=3)
        executor.eval()
        plan = executor.compile((1,) + tuple(net.input_shape),
                                CompileConfig.exact())
        x = rng.normal(size=plan.input_shape).astype(np.float32)
        assert plan.run(x).tobytes() == _eager(executor, x).tobytes()


class TestPlanStats:
    def test_folding_counted(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (2,) + tuple(net.input_shape))
        s = plan.stats
        assert s.folded_bn > 0
        assert s.fused_activations > 0
        assert s.ops < s.nodes  # fusion removed steps
        assert s.ops_fused == s.folded_bn + s.fused_activations
        assert len(plan) == s.ops

    def test_arena_smaller_than_naive(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (4,) + tuple(net.input_shape))
        s = plan.stats
        assert 0 < s.arena_bytes < s.naive_bytes
        assert 0.0 < s.arena_saving < 1.0

    def test_input_counted_once(self):
        # A lone pointwise conv dedicates nothing but the plan input, so
        # the arena is the slab pool plus one copy of the input.
        net = Network("pw", input_shape=(4, 6, 6))
        net.add(PointwiseConv2D(8), name="pw")
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (2, 4, 6, 6), CompileConfig.exact())
        s = plan.stats
        assert s.arena_bytes == s.pooled_bytes + 2 * 4 * 6 * 6 * 4

    def test_exact_preset_folds_nothing(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (1,) + tuple(net.input_shape),
                                CompileConfig.exact())
        assert plan.stats.folded_bn == 0
        assert plan.stats.fused_activations == 0


class TestArenaReuse:
    def test_repeated_runs_identical(self, rng):
        """The arena is reused every call — leftover state must not leak."""
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (2,) + tuple(net.input_shape),
                                CompileConfig.exact())
        x = rng.normal(size=plan.input_shape).astype(np.float32)
        first = plan.run(x)
        for _ in range(3):
            assert plan.run(x).tobytes() == first.tobytes()

    def test_interleaved_inputs_do_not_contaminate(self, rng):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (1,) + tuple(net.input_shape),
                                CompileConfig.exact())
        a = rng.normal(size=plan.input_shape).astype(np.float32)
        b = rng.normal(size=plan.input_shape).astype(np.float32)
        ref_a, ref_b = plan.run(a), plan.run(b)
        assert plan.run(a).tobytes() == ref_a.tobytes()
        assert plan.run(b).tobytes() == ref_b.tobytes()

    def test_output_detached_from_arena(self, rng):
        """run() must return a copy — a later run can't mutate it."""
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (1,) + tuple(net.input_shape),
                                CompileConfig.exact())
        a = rng.normal(size=plan.input_shape).astype(np.float32)
        out_a = plan.run(a)
        snapshot = out_a.copy()
        plan.run(rng.normal(size=plan.input_shape).astype(np.float32))
        assert np.array_equal(out_a, snapshot)


class TestErrors:
    def test_training_mode_rejected(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)  # training mode by default
        with pytest.raises(ValueError, match="eval"):
            compile_executor(executor, (1,) + tuple(net.input_shape))

    def test_wrong_input_shape_rejected(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        with pytest.raises(ValueError, match="input_shape"):
            compile_executor(executor, (1, 3, 5, 5))

    def test_run_rejects_mismatched_shape(self, rng):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (2,) + tuple(net.input_shape))
        with pytest.raises(ValueError, match="compiled for input"):
            plan.run(rng.normal(size=(1,) + tuple(net.input_shape)).astype(np.float32))

    def test_run_rejects_mismatched_dtype(self, rng):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        plan = compile_executor(executor, (1,) + tuple(net.input_shape))
        with pytest.raises(ValueError, match="dtype"):
            plan.run(rng.normal(size=plan.input_shape))  # float64

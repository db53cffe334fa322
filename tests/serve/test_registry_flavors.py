"""Plan-flavor caching: exact / folded / int8 are three independent plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import ModelKey
from repro.serve.registry import ModelRegistry, RegisteredModel

KEY = ModelKey("mobilenet_v3_small", resolution=32)


@pytest.fixture(scope="module")
def model() -> RegisteredModel:
    return ModelRegistry().get(KEY)


class TestFlavorCaching:
    def test_three_flavors_three_plans(self, model):
        plans = {f: model.plan_for(4, flavor=f)
                 for f in RegisteredModel.FLAVORS}
        assert all(p is not None for p in plans.values())
        # Three distinct plan objects — no cache-key collisions.
        ids = {id(p) for p in plans.values()}
        assert len(ids) == 3

    def test_same_flavor_same_batch_is_cached(self, model):
        assert model.plan_for(4, flavor="int8") is model.plan_for(
            4, flavor="int8")
        assert model.plan_for(4, flavor="folded") is model.plan_for(
            4, flavor="folded")

    def test_batch_sizes_cached_independently(self, model):
        b4 = model.plan_for(4, flavor="int8")
        b2 = model.plan_for(2, flavor="int8")
        assert b4 is not b2
        assert b4.input_shape[0] == 4
        assert b2.input_shape[0] == 2

    def test_legacy_bool_maps_onto_flavors(self, model):
        assert model.plan_for(4, exact=True) is model.plan_for(
            4, flavor="exact")
        assert model.plan_for(4, exact=False) is model.plan_for(
            4, flavor="folded")
        # Default (no argument) is the exact plan — the bitexact contract.
        assert model.plan_for(4) is model.plan_for(4, flavor="exact")

    def test_unknown_flavor_raises(self, model):
        with pytest.raises(ValueError, match="flavor"):
            model.plan_for(4, flavor="fp8")


class TestFlavorSemantics:
    def test_flavors_disagree_the_right_amount(self, model):
        x = np.random.default_rng(0).standard_normal(
            (4,) + tuple(model.input_shape)).astype(np.float32)
        exact = model.plan_for(4, flavor="exact").run(x)
        folded = model.plan_for(4, flavor="folded").run(x)
        int8 = model.plan_for(4, flavor="int8").run(x)
        assert exact.shape == folded.shape == int8.shape
        # Folded is float-close to exact; int8 is close but clearly coarser.
        fold_err = float(np.max(np.abs(folded - exact)))
        int8_err = float(np.max(np.abs(int8 - exact)))
        assert fold_err < 1e-4
        assert 0.0 < int8_err < 0.1
        assert int8_err > fold_err

    def test_int8_plan_reports_integer_coverage(self, model):
        plan = model.plan_for(4, flavor="int8")
        assert plan.stats.int8_ops > 10
        assert plan.stats.int8_fallbacks < plan.stats.int8_ops


class TestCompileFailureLatching:
    def test_failure_latches_none_per_flavor(self, monkeypatch):
        model = ModelRegistry().get(ModelKey("mobilenet_v1", resolution=32))
        import repro.nn.compile as compile_mod

        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("injected compile failure")

        monkeypatch.setattr(compile_mod, "compile_executor", boom)
        assert model.plan_for(2, flavor="int8") is None
        assert model.plan_for(2, flavor="int8") is None   # latched: no retry
        assert calls["n"] == 1
        monkeypatch.undo()
        # Other flavors are unaffected by the latched int8 failure.
        assert model.plan_for(2, flavor="folded") is not None


#: serve-open's two int8 lanes.
SERVE_OPEN_KEYS = (ModelKey("mobilenet_v3_small", "full", resolution=32),
                   ModelKey("mobilenet_v1", "half", resolution=32))


@pytest.fixture
def calibrations(monkeypatch):
    """Image count of every int8 calibration run, in call order."""
    import repro.nn.compile as compile_mod

    seen = []
    calibrate = compile_mod._calibrate_activations

    def counting(executor, network, config, batches, transform=None):
        seen.append(sum(len(b) for b in batches))
        return calibrate(executor, network, config, batches, transform)

    monkeypatch.setattr(compile_mod, "_calibrate_activations", counting)
    return seen


def _fresh_output(model, plan, seed=0):
    """``plan`` and a standalone int8 compile at its batch, on one input."""
    from repro.nn.compile import CompileConfig, compile_executor

    fresh = compile_executor(model.executor, plan.input_shape,
                             CompileConfig.int8())
    x = np.random.default_rng(seed).standard_normal(
        plan.input_shape).astype(np.float32)
    return plan.run(x).tobytes(), fresh.run(x).tobytes()


class TestInt8CompiledOncePerModel:
    """One calibration and one weight quantization per (model, flavor);
    every batch size lowers the same transform, byte-equal to a
    standalone ``compile_executor`` at that batch size."""

    @pytest.mark.parametrize("key", SERVE_OPEN_KEYS,
                             ids=[k.canonical() for k in SERVE_OPEN_KEYS])
    def test_every_batch_equals_standalone_compile(self, key):
        model = ModelRegistry().get(key)
        for batch in (1, 8, 3, 5, 2, 4, 6, 7):
            got, want = _fresh_output(model, model.plan_for(
                batch, flavor="int8"), seed=batch)
            assert got == want, f"batch {batch}"

    def test_one_calibration_across_batch_sizes(self, calibrations):
        model = ModelRegistry().get(SERVE_OPEN_KEYS[0])
        plans = [model.plan_for(b, flavor="int8") for b in range(1, 9)]
        assert calibrations == [16]
        assert len({id(p.transform) for p in plans}) == 1
        details = plans[-1].pass_results[-1].details
        assert details["calibration_images"] == 16

    def test_evicted_plan_recompiles_without_recalibrating(
            self, calibrations):
        model = ModelRegistry(plan_cache_cap=1).get(SERVE_OPEN_KEYS[1])
        first = model.plan_for(1, flavor="int8")
        model.plan_for(2, flavor="int8")      # evicts batch 1
        again = model.plan_for(1, flavor="int8")
        assert again is not first
        assert calibrations == [16]
        got, want = _fresh_output(model, model.plan_for(2, flavor="int8"))
        assert got == want

    def test_racing_first_compiles_share_one_transform(self, calibrations):
        import sys
        import threading

        model = ModelRegistry().get(SERVE_OPEN_KEYS[0])
        batches = (2, 6, 2, 6)
        start = threading.Barrier(len(batches))
        plans = [None] * len(batches)

        def compile_at(i):
            start.wait(timeout=30)
            plans[i] = model.plan_for(batches[i], flavor="int8")

        threads = [threading.Thread(target=compile_at, args=(i,))
                   for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert calibrations == [16]
        assert plans[0] is plans[2] and plans[1] is plans[3]
        assert plans[0].transform is plans[1].transform
        for plan in plans[:2]:
            got, want = _fresh_output(model, plan)
            assert got == want

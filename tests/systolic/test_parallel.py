"""Process-pool scatter, chunked executor parity, and the disk cache.

Parallelism must be *invisible* in the results: scatter keeps input
order, the chunked executor produces byte-identical values and the same
cycles as serial runs, worker metrics fold back into the parent
registry, and a disk-cache hit reproduces the cold estimate exactly.
"""

import json
import os

import numpy as np
import pytest

from repro.ir import Conv2D, DepthwiseConv2D, Network, PointwiseConv2D
from repro.obs import get_registry
from repro.systolic import (
    ArrayConfig,
    cache_key,
    estimate_network,
    estimate_network_cached,
    resolve_jobs,
    scatter,
    shutdown_pool,
)
from repro.systolic.executor import ArrayNetworkExecutor, _tile_chunks
from repro.systolic.gemm import FoldShape
from repro.systolic.parallel import JOBS_ENV, default_jobs


def _square(task):
    return task * task


def _square_with_metric(task):
    get_registry().counter("test.parallel.calls").inc()
    get_registry().gauge("test.parallel.last").set(task)
    return task * task


def _maybe_die(task):
    """Die (once) on the poisoned task; a marker file makes it one-shot.

    The marker lives on disk, so the *resurrected* worker sees it and
    computes normally — exactly the "transient worker death" scenario the
    resilient scatter is for.
    """
    value, poison, marker = task
    if value == poison and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("died here\n")
        os._exit(13)
    return value * value


def _always_die(task):
    """Unconditionally kill the worker on the poisoned value."""
    value, poison = task
    if value == poison:
        os._exit(13)
    return value * value


def _tiles(extent, tile):
    for start in range(0, extent, tile):
        yield min(tile, extent - start)


def small_net() -> Network:
    net = Network("small", input_shape=(3, 12, 12))
    net.add(Conv2D(6, kernel=3, stride=1, padding="same"), name="conv")
    net.add(DepthwiseConv2D(kernel=3), name="dw")
    net.add(PointwiseConv2D(8), name="pw")
    return net


class TestResolveJobs:
    def test_none_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1
        assert default_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "0")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)


class TestScatter:
    def test_results_in_input_order(self):
        tasks = list(range(20))
        assert scatter(_square, tasks, jobs=2) == [t * t for t in tasks]

    def test_parallel_equals_inline(self):
        tasks = [3, 1, 4, 1, 5, 9, 2, 6]
        assert scatter(_square, tasks, jobs=2) == scatter(_square, tasks, jobs=1)

    def test_single_task_runs_inline(self):
        # One task must not pay pool overhead; observable via metrics
        # landing directly in the parent registry even with jobs=2.
        reg = get_registry()
        reg.reset()
        assert scatter(_square_with_metric, [7], jobs=2) == [49]
        assert reg.counter("test.parallel.calls").value == 1

    def test_worker_metrics_merge_into_parent(self):
        reg = get_registry()
        reg.reset()
        results = scatter(_square_with_metric, list(range(6)), jobs=2)
        assert results == [t * t for t in range(6)]
        # Counters add across workers; the gauge takes some worker's last
        # write (which task is unspecified, but it must be one of them).
        assert reg.counter("test.parallel.calls").value == 6
        assert reg.gauge("test.parallel.last").value in range(6)

    def test_merge_metrics_opt_out(self):
        reg = get_registry()
        reg.reset()
        scatter(_square_with_metric, list(range(4)), jobs=2,
                merge_metrics=False)
        assert reg.get("test.parallel.calls") is None

    def test_shutdown_pool_idempotent(self):
        scatter(_square, [1, 2, 3], jobs=2)
        shutdown_pool()
        shutdown_pool()
        # The pool rebuilds transparently on the next call.
        assert scatter(_square, [1, 2, 3], jobs=2) == [1, 4, 9]


class TestScatterResilience:
    """Worker death: resurrection re-dispatches, fail-fast explains."""

    def _tasks(self, tmp_path, poison=3, n=8):
        marker = str(tmp_path / "died.marker")
        return [(i, poison, marker) for i in range(n)], marker

    def test_resurrection_matches_clean_run(self, tmp_path):
        reg = get_registry()
        reg.reset()
        shutdown_pool()  # fresh workers, no inherited state
        tasks, marker = self._tasks(tmp_path)
        results = scatter(_maybe_die, tasks, jobs=2)
        assert results == [i * i for i in range(8)]
        assert os.path.exists(marker)  # the death really happened
        assert reg.counter("resilience.pool_resurrections").value == 1

    def test_fail_fast_raises_actionable_error(self, tmp_path):
        shutdown_pool()
        tasks, marker = self._tasks(tmp_path)
        with pytest.raises(RuntimeError, match="worker process died"):
            scatter(_maybe_die, tasks, jobs=2, resilient=False)
        assert os.path.exists(marker)

    def test_injected_worker_kill_breaks_pool(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        # Forked workers inherit the installed plan; the kill spec fires
        # in a child and takes the pool down.  ``resilient=False`` proves
        # the fault point end-to-end without fighting per-child counters
        # (each resurrected fork would re-fire its own one-shot).
        shutdown_pool()
        install_plan(FaultPlan(faults=[
            FaultSpec(point="parallel.worker", kind="kill", max_fires=1),
        ]))
        try:
            with pytest.raises(RuntimeError, match="worker process died"):
                scatter(_square, list(range(8)), jobs=2, resilient=False)
        finally:
            clear_plan()
            shutdown_pool()  # drop workers still holding the plan

    def test_persistent_failure_gives_up(self):
        # A poison with no one-shot marker dies on every dispatch: the
        # resilient path must stop after ``max_resurrections`` rebuilds,
        # not spin forever.
        shutdown_pool()
        tasks = [(i, 3) for i in range(8)]
        with pytest.raises(RuntimeError, match="persistent"):
            scatter(_always_die, tasks, jobs=2, max_resurrections=1)


class TestTileChunks:
    @pytest.mark.parametrize("extent,tile,parts", [
        (100, 8, 4), (7, 8, 4), (8, 8, 3), (33, 16, 2), (1, 1, 5),
        (64, 8, 1), (65, 8, 16),
    ])
    def test_chunks_cover_and_align(self, extent, tile, parts):
        chunks = _tile_chunks(extent, tile, parts)
        # Full disjoint cover, in order.
        assert chunks[0][0] == 0
        assert chunks[-1][1] == extent
        for (a0, a1), (b0, b1) in zip(chunks, chunks[1:]):
            assert a1 == b0
            assert a0 < a1
        # Every interior boundary sits on a fold boundary, so chunking
        # never changes the fold shapes the cycle model sees.
        for start, _ in chunks[1:]:
            assert start % tile == 0
        assert len(chunks) <= max(parts, 1)


class TestExecutorParallelParity:
    def test_values_and_cycles_identical(self):
        net = small_net()
        array = ArrayConfig(4, 4, broadcast=True)
        x = np.random.default_rng(0).standard_normal(net.input_shape)
        serial = ArrayNetworkExecutor(net, array=array, seed=1, jobs=1).run(x)
        parallel = ArrayNetworkExecutor(net, array=array, seed=1, jobs=2).run(x)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert serial.cycles == parallel.cycles
        assert [l.cycles for l in serial.layers] == [
            l.cycles for l in parallel.layers
        ]
        assert parallel.all_cycles_consistent

    def test_sim_counters_count_every_channel_gemm(self):
        """The depthwise stack still counts one GEMM per channel, so the
        ``sim.gemm.*`` counters (and ``--metrics-out`` sidecars) equal
        the per-channel totals: conv, 6 depthwise channels, pointwise."""
        reg = get_registry()
        reg.reset()
        array = ArrayConfig(4, 4, broadcast=True)
        x = np.random.default_rng(0).standard_normal((3, 12, 12))
        ArrayNetworkExecutor(small_net(), array=array, seed=1).run(x)
        gemms = [(144, 27, 6)] + [(144, 9, 1)] * 6 + [(144, 6, 8)]
        folds = cycles = 0
        for m, k, n in gemms:
            for r in _tiles(m, 4):
                for c in _tiles(n, 4):
                    folds += 1
                    cycles += FoldShape(r=r, c=c, k=k).cycles
        assert reg.counter("sim.gemm.calls").value == len(gemms)
        assert reg.counter("sim.gemm.folds").value == folds
        assert reg.counter("sim.gemm.cycles").value == cycles

    def test_worker_sim_metrics_visible(self):
        reg = get_registry()
        reg.reset()
        net = small_net()
        array = ArrayConfig(4, 4, broadcast=True)
        x = np.random.default_rng(0).standard_normal(net.input_shape)
        ArrayNetworkExecutor(net, array=array, seed=1, jobs=2).run(x)
        metrics = {m.name for m in reg}
        assert any(name.startswith("sim.") for name in metrics)


class TestDiskCache:
    def test_none_cache_dir_is_plain_estimate(self):
        net = small_net()
        array = ArrayConfig(8, 8, broadcast=True)
        cached = estimate_network_cached(net, array, cache_dir=None)
        assert cached.total_cycles == estimate_network(net, array).total_cycles

    def test_hit_reproduces_cold_result(self, tmp_path):
        reg = get_registry()
        reg.reset()
        net = small_net()
        array = ArrayConfig(8, 8, broadcast=True)
        cold = estimate_network_cached(net, array, cache_dir=tmp_path)
        warm = estimate_network_cached(net, array, cache_dir=tmp_path)
        assert reg.counter("latency.diskcache.miss").value == 1
        assert reg.counter("latency.diskcache.hit").value == 1
        assert warm.total_cycles == cold.total_cycles
        assert warm.total_ms == cold.total_ms
        assert [l.name for l in warm.layers] == [l.name for l in cold.layers]
        assert [l.cycles for l in warm.layers] == [
            l.cycles for l in cold.layers
        ]
        assert warm.mean_utilization == cold.mean_utilization

    def test_key_ignores_frequency_but_not_geometry(self):
        net = small_net()
        slow = ArrayConfig(8, 8, broadcast=True, frequency_mhz=100.0)
        fast = ArrayConfig(8, 8, broadcast=True, frequency_mhz=900.0)
        assert cache_key(net, slow) == cache_key(net, fast)
        for other in (
            ArrayConfig(16, 8, broadcast=True),
            ArrayConfig(8, 16, broadcast=True),
            ArrayConfig(8, 8, broadcast=False),
            ArrayConfig(8, 8, broadcast=True, dataflow="ws"),
            ArrayConfig(8, 8, broadcast=True, pipelined_folds=True),
        ):
            assert cache_key(net, other) != cache_key(net, slow)
        assert cache_key(net, slow, batch=2) != cache_key(net, slow, batch=1)

    def test_corrupt_entry_is_a_miss_and_rewritten(self, tmp_path):
        reg = get_registry()
        reg.reset()
        net = small_net()
        array = ArrayConfig(8, 8, broadcast=True)
        cold = estimate_network_cached(net, array, cache_dir=tmp_path)
        entries = list(tmp_path.rglob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{not json")
        again = estimate_network_cached(net, array, cache_dir=tmp_path)
        assert again.total_cycles == cold.total_cycles
        assert reg.counter("latency.diskcache.miss").value == 2
        # The corrupt entry was replaced with a valid one.
        json.loads(entries[0].read_text())
        estimate_network_cached(net, array, cache_dir=tmp_path)
        assert reg.counter("latency.diskcache.hit").value == 1

    def test_injected_partial_write_degrades_to_miss(self, tmp_path):
        from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan

        reg = get_registry()
        reg.reset()
        net = small_net()
        array = ArrayConfig(8, 8, broadcast=True)
        install_plan(FaultPlan(faults=[
            FaultSpec(point="diskcache.write", max_fires=1),
        ]))
        try:
            # The first write lands torn (truncated blob) but never raises.
            cold = estimate_network_cached(net, array, cache_dir=tmp_path)
        finally:
            clear_plan()
        # The torn entry reads as corrupt: counted, degraded to a miss,
        # recomputed identically, and rewritten in full.
        again = estimate_network_cached(net, array, cache_dir=tmp_path)
        assert again.total_cycles == cold.total_cycles
        assert reg.counter("faults.diskcache.corrupt").value == 1
        assert reg.counter("latency.diskcache.miss").value == 2
        # Third call: the rewrite healed the cache.
        estimate_network_cached(net, array, cache_dir=tmp_path)
        assert reg.counter("latency.diskcache.hit").value == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        net = small_net()
        estimate_network_cached(net, ArrayConfig(8, 8, broadcast=True),
                                cache_dir=tmp_path)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path):
        net = small_net()
        array = ArrayConfig(8, 8, broadcast=True)
        ro = tmp_path / "ro"
        ro.mkdir()
        os.chmod(ro, 0o500)
        try:
            result = estimate_network_cached(net, array, cache_dir=ro)
        finally:
            os.chmod(ro, 0o700)
        assert result.total_cycles == estimate_network(net, array).total_cycles

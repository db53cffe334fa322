"""End-to-end server behaviour: batching, shedding, expiry, lifecycle.

Scheduler-behaviour tests run on the ``analytical`` engine (no numerics)
so they exercise admission/batching/SLO logic without paying for forward
passes; one test runs the real ``graph`` engine end to end.
"""

from __future__ import annotations

import asyncio
import logging
import threading

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    ModelKey,
    ServeConfig,
    Status,
    WorkloadSpec,
    run_workload,
    workers,
)
from repro.serve.blas import find_openblas

KEY = ModelKey("mobilenet_v3_small", resolution=32)
KEY2 = ModelKey("mobilenet_v1", resolution=32)


def run(coro):
    return asyncio.run(coro)


def _request(key=KEY, slo_ms=None, **kwargs):
    return InferenceRequest(key=key, slo_ms=slo_ms, **kwargs)


class TestLifecycle:
    def test_submit_before_start_raises(self):
        async def main():
            server = InferenceServer(ServeConfig(engine="analytical"))
            with pytest.raises(RuntimeError):
                await server.submit(_request())
        run(main())

    def test_start_stop_idempotent(self):
        async def main():
            server = InferenceServer(
                ServeConfig(engine="analytical", preload=[KEY])
            )
            await server.start()
            await server.start()
            await server.stop()
            await server.stop()
        run(main())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(engine="gpu")
        with pytest.raises(ValueError):
            ServeConfig(max_queue=0)


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.mark.skipif(find_openblas() is None,
                    reason="numpy does not run on OpenBLAS here")
class TestBlasHold:
    """A running server holds OpenBLAS at one thread; the last stop
    restores the count the first start found."""

    @pytest.fixture(autouse=True)
    def two_threads(self):
        blas = find_openblas()
        saved = blas.threads
        blas.set_threads(2)
        yield blas
        blas.set_threads(saved)

    def test_start_stop_restores_count(self, two_threads):
        logger = logging.getLogger("repro.serve.server")
        handler, level = _Records(), logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)

        async def main():
            server = InferenceServer(ServeConfig(engine="analytical"))
            assert server.health()["blas_threads"] == 2
            await server.start()
            assert two_threads.threads == 1
            assert server.health()["blas_threads"] == 1
            await server.stop()
            assert two_threads.threads == 2
            assert server.health()["blas_threads"] == 2
        try:
            run(main())
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        started = [m for m in handler.messages if m.startswith("server started")]
        assert len(started) == 1 and "blas_threads=1" in started[0]

    def test_held_until_last_server_stops(self, two_threads):
        async def main():
            first = InferenceServer(ServeConfig(engine="analytical"))
            second = InferenceServer(ServeConfig(engine="analytical"))
            await first.start()
            await second.start()
            await first.stop()
            assert two_threads.threads == 1
            await first.start()
            await second.stop()
            assert two_threads.threads == 1
            await first.stop()
            assert two_threads.threads == 2
        run(main())

    def test_failed_start_releases_hold(self, two_threads):
        async def main():
            server = InferenceServer(ServeConfig(
                engine="analytical", preload=[ModelKey("no_such_net")]))
            with pytest.raises(KeyError):
                await server.start()
            assert two_threads.threads == 2
            assert not server.health()["ready"]
            async with InferenceServer(ServeConfig(engine="analytical")):
                assert two_threads.threads == 1
            assert two_threads.threads == 2
        run(main())


class TestServing:
    def test_single_request_ok(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=5000.0)
            async with InferenceServer(config) as server:
                response = await server.submit(_request())
            assert response.status is Status.OK
            assert response.batch_size >= 1
            assert response.simulated_ms > 0
            assert response.slo_ms == 5000.0
        run(main())

    def test_burst_forms_dynamic_batches(self):
        async def main():
            config = ServeConfig(
                engine="analytical", preload=[KEY], workers=1,
                max_batch=8, batch_timeout_ms=50.0, slo_ms=5000.0,
            )
            async with InferenceServer(config) as server:
                responses = await server.submit_many(
                    [_request() for _ in range(16)]
                )
            assert all(r.status is Status.OK for r in responses)
            assert max(r.batch_size for r in responses) > 1
        run(main())

    def test_graph_engine_end_to_end(self):
        async def main():
            config = ServeConfig(engine="graph", preload=[KEY, KEY2],
                                 workers=2, slo_ms=30000.0)
            async with InferenceServer(config) as server:
                responses = await server.submit_many(
                    [_request(KEY, input_seed=1),
                     _request(KEY2, input_seed=2)]
                )
            for r in responses:
                assert r.status is Status.OK
                assert r.output is not None
                assert r.digest is not None
                assert np.isfinite(r.output).all()
            # Different networks must never share a batch.
            assert all(r.batch_size == 1 for r in responses)
        run(main())

    def test_unknown_network_surfaces_as_error_response(self):
        async def main():
            config = ServeConfig(engine="graph", slo_ms=30000.0)
            async with InferenceServer(config) as server:
                first = await server.submit(
                    _request(ModelKey("no_such_net", resolution=32))
                )
                # The failed build must not have killed the worker.
                second = await server.submit(_request(KEY))
            return first, second

        first, second = run(main())
        assert first.status is Status.ERROR
        assert "no_such_net" in first.error
        assert second.status is Status.OK


def _lingered() -> int:
    """Batches observed in ``serve.batch.linger_ms`` so far."""
    histogram = get_registry().get("serve.batch.linger_ms")
    return 0 if histogram is None else histogram.count


class TestWorkConserving:
    """The default batcher runs what is queued at once; lingering is an
    opt-in, and each batch that waits is observed once."""

    def test_default_lone_request_does_not_linger(self):
        assert ServeConfig().batch_timeout_ms == 0.0

        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=5000.0)
            async with InferenceServer(config) as server:
                before = _lingered()
                response = await server.submit(_request())
                return response, _lingered() - before
        response, lingered = run(main())
        assert response.status is Status.OK
        assert lingered == 0

    def test_opt_in_lone_request_lingers_once(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 workers=1, max_batch=8,
                                 batch_timeout_ms=20.0, slo_ms=5000.0)
            async with InferenceServer(config) as server:
                model = server.registry.get(KEY)
                planned = server.cost_model.plan_batch_size(model, 5000.0, 8)
                before = _lingered()
                response = await server.submit(_request())
                return planned, response, _lingered() - before
        planned, response, lingered = run(main())
        assert planned > 1
        assert response.status is Status.OK and response.batch_size == 1
        assert lingered == 1

    def test_queued_burst_coalesces_without_linger(self, monkeypatch):
        # The single worker is held by an event before it executes its
        # first batch (outside the timed execution, so the cost model's
        # calibration is untouched), a burst queues behind it, and the
        # release lets the worker form the next batch from the queue alone.
        entered, release = threading.Event(), threading.Event()
        execute_batch = workers.execute_batch

        def held(*args):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30.0)
            return execute_batch(*args)

        monkeypatch.setattr(workers, "execute_batch", held)
        burst = 11

        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 workers=1, max_batch=8, slo_ms=5000.0)
            async with InferenceServer(config) as server:
                model = server.registry.get(KEY)
                planned = server.cost_model.plan_batch_size(model, 5000.0, 8)
                before = _lingered()
                first = await server.scheduler.submit(_request())
                assert await asyncio.to_thread(entered.wait, 30.0)
                queued = [await server.scheduler.submit(_request())
                          for _ in range(burst)]
                release.set()
                responses = await asyncio.gather(first, *queued)
                return planned, responses, _lingered() - before
        planned, responses, lingered = run(main())
        assert all(r.status is Status.OK for r in responses)
        assert responses[0].batch_size == 1
        assert responses[1].batch_size == min(burst, planned) > 1
        assert lingered == 0


class TestOverload:
    def test_queue_full_sheds_with_retry_after(self):
        async def main():
            config = ServeConfig(
                engine="analytical", preload=[KEY], workers=1,
                max_queue=2, max_batch=1, batch_timeout_ms=0.0,
                slo_ms=5000.0,
            )
            async with InferenceServer(config) as server:
                responses = await server.submit_many(
                    [_request() for _ in range(30)]
                )
            return responses
        responses = run(main())
        shed = [r for r in responses if r.status is Status.SHED]
        assert shed, "a 30-deep burst over a 2-slot queue must shed"
        assert all(r.retry_after_ms is not None and r.retry_after_ms > 0
                   for r in shed)
        assert any(r.status is Status.OK for r in responses)

    def test_open_loop_overload_on_graph_engine_sheds(self, monkeypatch):
        # An open-loop stream over an 8-slot queue against the real graph
        # engine.  The single worker is held in its first batch until the
        # last arrival is submitted, so the overload does not depend on
        # how fast this host runs a forward pass: at most one batch plus
        # the queue are admitted, everything else must shed.
        entered, release = threading.Event(), threading.Event()
        execute_batch = workers.execute_batch

        def held(*args):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30.0)
            return execute_batch(*args)

        monkeypatch.setattr(workers, "execute_batch", held)
        spec = WorkloadSpec(keys=[KEY], requests=60, mode="open",
                            rate=2000.0, seed=1)

        async def main():
            config = ServeConfig(engine="graph", preload=[KEY], workers=1,
                                 max_batch=2, max_queue=8, slo_ms=30000.0)
            sent = 0
            async with InferenceServer(config) as server:
                async def submit(request):
                    nonlocal sent
                    sent += 1
                    if sent == spec.requests:
                        release.set()
                    return await server.submit(request)

                return await run_workload(submit, spec)
        report = run(main())
        assert entered.is_set()
        assert report.errors == 0
        assert report.total == spec.requests
        assert report.shed >= spec.requests - 2 - 8
        assert report.ok > 0
        assert 0.0 < report.shed_rate < 1.0

    def test_expired_requests_dropped_not_executed(self):
        async def main():
            config = ServeConfig(
                engine="analytical", preload=[KEY], workers=1,
                max_batch=1, batch_timeout_ms=0.0, slo_ms=5000.0,
            )
            async with InferenceServer(config) as server:
                # A dead-on-arrival deadline: expires before any worker
                # can dispatch it.
                responses = await server.submit_many(
                    [_request(slo_ms=0.0) for _ in range(4)]
                )
            return responses
        responses = run(main())
        assert all(r.status is Status.EXPIRED for r in responses)
        assert all(r.output is None for r in responses)

    def test_stop_without_drain_cancels_queued(self):
        async def main():
            config = ServeConfig(
                engine="analytical", preload=[KEY], workers=1,
                max_batch=1, batch_timeout_ms=0.0, slo_ms=5000.0,
            )
            server = InferenceServer(config)
            await server.start()
            futures = [
                await server.scheduler.submit(_request()) for _ in range(6)
            ]
            await server.stop(drain=False)
            return await asyncio.gather(*futures)
        responses = run(main())
        # Whatever had not been dispatched resolves as CANCELLED.
        assert any(r.status is Status.CANCELLED for r in responses)
        assert all(r.status in (Status.OK, Status.CANCELLED)
                   for r in responses)


class TestStats:
    def test_stats_snapshot_counts(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=5000.0)
            async with InferenceServer(config) as server:
                await server.submit_many([_request() for _ in range(5)])
                return server.stats()
        stats = run(main())
        assert stats["requests_ok"] >= 5
        assert stats["batches"] >= 1
        assert stats["queue_depth"] == 0
        assert KEY.canonical() in stats["models"]

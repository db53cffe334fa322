"""Chaos mode: the seeded fault schedule, the bounds, the determinism.

The ``serve`` drill (one server + TCP + faults + workload) runs here on
the analytical engine to stay fast; ``make chaos-smoke`` runs the real
graph engine end to end.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.faults import clear_plan, current_injector
from repro.fleet.chaos import SERVE, DrillReport, run_drill
from repro.serve import ModelKey, ServeConfig, WorkloadSpec, requests_digest

KEY = ModelKey("mobilenet_v3_small", resolution=32)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


class TestDeterminism:
    def test_plan_fingerprint_replays_for_a_seed(self):
        assert SERVE.plan(7).fingerprint() == SERVE.plan(7).fingerprint()
        assert SERVE.plan(7).fingerprint() != SERVE.plan(8).fingerprint()

    def test_request_stream_digest_replays_for_a_seed(self):
        spec = WorkloadSpec(keys=[KEY], requests=50, seed=3)
        again = WorkloadSpec(keys=[KEY], requests=50, seed=3)
        other = WorkloadSpec(keys=[KEY], requests=50, seed=4)
        assert requests_digest(spec) == requests_digest(again)
        assert requests_digest(spec) != requests_digest(other)

    def test_default_plan_covers_the_serving_points(self):
        points = set(SERVE.plan(0).points())
        assert {"serve.engine", "serve.worker", "nn.compile",
                "transport.garbage", "transport.disconnect"} <= points


class TestChaosRun:
    @pytest.fixture(scope="class")
    def chaos(self):
        spec = WorkloadSpec(keys=[KEY], requests=80, clients=4, seed=0)
        config = ServeConfig(engine="analytical", preload=[KEY],
                             workers=2, slo_ms=30000.0)
        return asyncio.run(run_drill(SERVE, spec, config=config))

    def test_bounds_hold_under_the_default_schedule(self, chaos):
        assert isinstance(chaos, DrillReport)
        assert chaos.check() == []
        assert chaos.ok

    def test_no_request_went_unanswered(self, chaos):
        # Zero unhandled exceptions: every request has a terminal status.
        assert chaos.report.total == 80
        assert chaos.report.errors == 0
        assert chaos.answered_rate >= 0.99

    def test_faults_actually_fired(self, chaos):
        assert sum(chaos.faults_fired.values()) > 0
        assert "serve.worker" in chaos.faults_fired

    def test_server_healthy_after_chaos(self, chaos):
        assert chaos.health_after["ready"] is True
        assert chaos.health_after["workers_alive"] == 2

    def test_garbage_feeder_got_structured_errors(self, chaos):
        assert chaos.observed["garbage_answered"] == 1.0

    def test_plan_restored_after_run(self, chaos):
        assert current_injector() is None

    def test_render_mentions_the_verdict(self, chaos):
        text = chaos.render()
        assert "chaos check : all serve.chaos bounds held" in text
        assert chaos.plan_fingerprint[:12] in text

    def test_p99_bound_failure_is_reported(self, chaos):
        tight = dataclasses.replace(chaos, max_p99_ms=0.000001)
        assert any("p99" in f for f in tight.check())
        assert not tight.ok

"""Fleet chaos: kill a replica mid-run, the router reroutes inside bounds.

One full ``kill`` drill (4 inproc replicas + router TCP + mid-run kill)
runs class-scoped on the analytical engine; every test inspects its
report.  ``make fleet-smoke`` runs the same drill from the CLI.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.fleet.chaos import KILL, DrillReport, run_drill
from repro.serve import ModelKey, ServeConfig, WorkloadSpec

KEY = ModelKey("mobilenet_v3_small", resolution=32)


class TestFleetChaosRun:
    @pytest.fixture(scope="class")
    def chaos(self):
        spec = WorkloadSpec(keys=[KEY], requests=80, clients=4, seed=0)
        config = ServeConfig(engine="analytical", preload=[KEY],
                             workers=2, slo_ms=30000.0, compile=False,
                             telemetry=False)
        return asyncio.run(run_drill(KILL, spec, config=config))

    def test_bounds_hold(self, chaos):
        assert isinstance(chaos, DrillReport)
        assert chaos.check() == []
        assert chaos.ok

    def test_kill_actually_fired_mid_run(self, chaos):
        assert chaos.faults_fired == {"replica.kill": 1}
        assert 0 < chaos.observed["killed_at"] < chaos.report.total
        assert chaos.observed["ok_after_kill"] > 0

    def test_no_request_went_unanswered(self, chaos):
        report = chaos.report
        assert report.errors == 0
        assert report.ok + report.shed == report.total

    def test_replay_fingerprint_is_kill_invariant(self, chaos):
        assert chaos.requests_digest == chaos.replay_digest

    def test_only_the_victims_lanes_moved(self, chaos):
        for lane, owner in chaos.placement_before.items():
            if owner != chaos.victim:
                assert chaos.placement_after[lane] == owner
        assert chaos.victim not in chaos.placement_after.values()

    def test_router_stays_ready_with_one_replica_down(self, chaos):
        assert chaos.health_after["ready"]
        assert chaos.health_after["usable"] == chaos.scenario.replicas - 1

    def test_render_is_human_readable(self, chaos):
        text = chaos.render()
        assert "fleet.chaos" in text
        assert chaos.victim in text

    def test_check_is_strict_about_regressions(self, chaos):
        # Forcing a digest mismatch must fail the check.
        broken = dataclasses.replace(chaos, replay_digest="deadbeef")
        assert any("fingerprint" in failure for failure in broken.check())
        # Forcing unanswered requests must fail the rate bound.
        counts = dict(chaos.report.status_counts, ok=chaos.report.ok - 2,
                      expired=0, shed=0)
        counts["error"] = 2
        starved = dataclasses.replace(chaos, report=dataclasses.replace(
            chaos.report, status_counts=counts))
        failures = starved.check()
        assert any("answered rate" in f for f in failures)
        assert any("unhandled errors" in f for f in failures)

    def test_scenario_rejects_a_fleet_of_one(self):
        with pytest.raises(ValueError, match="at least 2"):
            dataclasses.replace(KILL, replicas=1)

"""The gray-failure drill end to end: every hop to one replica stalls
250 ms under live traffic, hedging + slow-detection hold the tail under
half the stall, then a warm-gated scale-up with the zero-cold-plan
witness.  Without hedging the same drill must fail its tail bound."""

from __future__ import annotations

import asyncio
import dataclasses

from repro.fleet.chaos import GRAY, STALL_MS, DrillReport, run_drill
from repro.serve import ModelKey, ServeConfig, WorkloadSpec

KEY = ModelKey("mobilenet_v3_small", resolution=32)


def _drill(scenario=GRAY, requests: int = 140) -> DrillReport:
    spec = WorkloadSpec(keys=[KEY], requests=requests, mode="closed",
                        clients=4, slo_ms=30000.0, seed=11)
    config = ServeConfig(engine="analytical", preload=[KEY], slo_ms=30000.0,
                         compile=False, telemetry=False)
    return asyncio.run(run_drill(scenario, spec, config=config))


class TestGrayChaos:
    def test_drill_holds_every_gray_failure_bound(self):
        report = _drill()
        assert report.ok, "; ".join(report.failures)
        observed = report.observed

        # The stall was real and absorbed, not absent.
        assert report.faults_fired["fleet.forward"] > 0
        assert report.scenario.stall_ms == STALL_MS
        assert report.report.errors == 0
        # The bound is on client-observed wall latency — server-side
        # total_ms cannot see a router-hop stall (it precedes admission).
        assert 0 < report.wall_p99_ms <= STALL_MS / 2

        # Exactly-once responses and honest hedge accounting.
        assert observed["duplicates"] == 0
        assert observed["hedges"] > 0
        assert observed["hedges"] == (observed["hedge_wins"]
                                      + observed["hedge_losses"])

        # The victim was detected, not merely survived.
        assert observed["slow_detections"] >= 1

        # Determinism: the drill replays byte-identically.
        assert report.replay_digest == report.requests_digest

        # Warm-up gate: the scale-up replica served nothing cold, opened
        # only after warming, and post-gate traffic compiled nothing.
        assert observed["starting_served"] == 0
        assert observed["gate_ready"] == 1.0
        assert observed["warmed_lanes"] >= 1
        assert observed["cold_builds"] == 0
        assert observed["cold_plans"] == 0
        assert observed["post_scale_ok"] > 0

        # The render names the verdict either way.
        assert "fleet.gray" in report.render()

    def test_without_hedging_the_tail_bound_fails(self):
        # Negative control: the tail bound must be able to fail.  With
        # hedging off every stalled request waits out the whole stall.
        unhedged = dataclasses.replace(
            GRAY, router=dataclasses.replace(GRAY.router, hedge=False))
        report = _drill(unhedged, requests=32)
        assert report.report.errors == 0
        assert report.wall_p99_ms >= STALL_MS
        assert any("half the" in f for f in report.check())

"""Ramp/stair open-loop profiles and the saturation estimate."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import (
    ModelKey,
    ServeConfig,
    WorkloadSpec,
    run_workload,
)
from repro.serve.loadgen import RampStep, requests_digest, saturation_qps
from repro.serve.server import InferenceServer

KEY = ModelKey("mobilenet_v3_small", resolution=32)


def step(offered: float, ok: int, shed: int = 0, wall_s: float = 1.0,
         index: int = 0) -> RampStep:
    return RampStep(index=index, offered_rps=offered, total=ok + shed,
                    ok=ok, shed=shed, errors=0,
                    achieved_rps=ok / wall_s, p99_ms=5.0, wall_s=wall_s)


class TestSpec:
    def test_ramp_requires_open_loop(self):
        with pytest.raises(ValueError, match="open"):
            WorkloadSpec(keys=[KEY], mode="closed", ramp=(10, 50, 3))

    def test_ramp_validation(self):
        with pytest.raises(ValueError, match="> 0"):
            WorkloadSpec(keys=[KEY], mode="open", ramp=(0, 50, 3))
        with pytest.raises(ValueError, match="steps"):
            WorkloadSpec(keys=[KEY], mode="open", ramp=(10, 50, 1))

    def test_step_rates_are_linear(self):
        spec = WorkloadSpec(keys=[KEY], mode="open", ramp=(10, 50, 5))
        assert spec.step_rates() == [10.0, 20.0, 30.0, 40.0, 50.0]

    def test_no_ramp_no_steps(self):
        assert WorkloadSpec(keys=[KEY]).step_rates() == []

    def test_fingerprint_is_ramp_invariant(self):
        plain = WorkloadSpec(keys=[KEY], requests=60, seed=5, mode="open",
                             rate=100.0)
        ramped = WorkloadSpec(keys=[KEY], requests=60, seed=5, mode="open",
                              ramp=(10, 100, 3))
        assert requests_digest(plain) == requests_digest(ramped)


class TestSaturation:
    def test_highest_sustained_stair_wins(self):
        steps = [step(10, ok=10), step(20, ok=20),
                 step(40, ok=25, shed=15, index=2)]
        assert saturation_qps(steps) == 20.0

    def test_achieved_shortfall_disqualifies_a_stair(self):
        # No sheds, but the service only kept up with half the offer.
        steps = [step(10, ok=10), step(40, ok=18, wall_s=1.0, index=1)]
        assert saturation_qps(steps) == 10.0

    def test_total_overload_falls_back_to_best_achieved(self):
        steps = [step(100, ok=30, shed=70)]
        assert saturation_qps(steps) == 30.0

    def test_empty_is_zero(self):
        assert saturation_qps([]) == 0.0


class TestRampRun:
    def test_ramp_run_produces_per_stair_stats(self):
        async def main():
            config = ServeConfig(engine="analytical", preload=[KEY],
                                 slo_ms=30000.0, compile=False,
                                 telemetry=False)
            server = InferenceServer(config)
            await server.start()
            try:
                spec = WorkloadSpec(keys=[KEY], requests=30, seed=3,
                                    mode="open", ramp=(50, 150, 3))
                report = await run_workload(server.submit, spec)
            finally:
                await server.stop(drain=False)
            return report

        report = asyncio.run(main())
        assert report.total == 30
        assert len(report.ramp_steps) == 3
        assert sum(s.total for s in report.ramp_steps) == 30
        offered = [s.offered_rps for s in report.ramp_steps]
        assert offered == sorted(offered)
        assert report.saturation_qps > 0
        rendered = report.render()
        assert "ramp" in rendered
        assert "saturation" in rendered

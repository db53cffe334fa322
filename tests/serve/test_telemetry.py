"""Live telemetry through the serving stack: snapshots, the ``op:
metrics`` scrape, per-stage timings, and the ``repro top`` renderer."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.alerts import Alert
from repro.obs.expose import parse_exposition
from repro.obs.snapshots import LiveStats
from repro.fleet.chaos import SERVE, DrillReport
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    LoadReport,
    ModelKey,
    RemoteClient,
    ServeConfig,
    WorkloadSpec,
    render_frame,
    run_workload,
    serve_tcp,
)

KEY = ModelKey("mobilenet_v3_small", resolution=32)


def _config(**overrides) -> ServeConfig:
    defaults = dict(engine="analytical", preload=[KEY], slo_ms=10000.0,
                    snapshot_interval_s=0.05)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestServerTelemetry:
    def test_snapshot_loop_advances_and_survives_stop(self):
        async def main():
            server = InferenceServer(_config())
            async with server:
                spec = WorkloadSpec(keys=[KEY], requests=20, clients=4, seed=0)
                await run_workload(server.submit, spec)
                await asyncio.sleep(0.15)  # let a few intervals elapse
                assert server.snapshots is not None
                assert server.snapshots.running
            # stop() halted the thread but kept the ring for post-run reads.
            assert server.snapshots is not None
            assert not server.snapshots.running
            assert server.snapshots.ring.taken >= 2
            live = server.live(window_s=60.0)
            assert live.requests_total >= 20
            payload = server.telemetry_payload()
            assert set(payload) == {"live", "alerts", "health"}
            assert payload["live"]["requests_total"] >= 20

        asyncio.run(main())

    def test_alerts_evaluate_against_the_server_slo(self):
        async def main():
            async with InferenceServer(_config()) as server:
                spec = WorkloadSpec(keys=[KEY], requests=10, clients=2, seed=0)
                await run_workload(server.submit, spec)
                alerts = server.alerts()
                assert [a.rule for a in alerts] == [
                    "shed-burn", "slo-burn", "p99-vs-slo",
                ]
                assert all(isinstance(a, Alert) for a in alerts)

        asyncio.run(main())

    def test_telemetry_can_be_disabled(self):
        async def main():
            async with InferenceServer(_config(telemetry=False)) as server:
                assert server.snapshots is None
                assert server.live() == LiveStats()
                assert server.alerts() == []
                payload = server.telemetry_payload()
                assert payload["alerts"] == []

        asyncio.run(main())


class TestMetricsOverTheWire:
    def test_op_metrics_returns_exposition_and_telemetry(self):
        async def main():
            async with InferenceServer(_config()) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                client = RemoteClient("127.0.0.1", port)
                try:
                    await client.connect()
                    for _ in range(5):
                        await client.submit(InferenceRequest(key=KEY))
                    reply = await client.metrics()
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()
            assert reply["op"] == "metrics"
            parsed = parse_exposition(reply["exposition"])
            ok = parsed.value("repro_serve_requests_total", status="ok")
            assert ok is not None and ok >= 5
            telemetry = reply["telemetry"]
            assert telemetry["health"]["ready"] is True
            assert "qps" in telemetry["live"]
            assert isinstance(telemetry["alerts"], list)

        asyncio.run(main())


class TestTimingsEcho:
    def test_want_timings_echoes_the_stage_breakdown(self):
        async def main():
            async with InferenceServer(_config()) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                client = RemoteClient("127.0.0.1", port)
                try:
                    await client.connect()
                    with_timings = await client.submit(
                        InferenceRequest(key=KEY, want_timings=True)
                    )
                    without = await client.submit(InferenceRequest(key=KEY))
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()
            assert with_timings.ok
            assert set(with_timings.timings) == {
                "queue_ms", "batch_ms", "execute_ms", "total_ms",
            }
            assert with_timings.timings["total_ms"] >= 0.0
            assert without.timings is None  # opt-in only

        asyncio.run(main())

    def test_in_process_submit_honors_want_timings(self):
        async def main():
            async with InferenceServer(_config()) as server:
                response = await server.submit(
                    InferenceRequest(key=KEY, want_timings=True)
                )
            assert response.ok
            assert response.timings is not None
            assert response.timings["execute_ms"] >= 0.0

        asyncio.run(main())


class TestTopRenderer:
    EXPOSITION = (
        'repro_serve_requests_total{status="ok"} 120\n'
        'repro_serve_requests_total{status="shed"} 4\n'
    )

    def test_render_frame_shows_the_vitals(self):
        live = {
            "qps": 52.5, "window_s": 10.0, "snapshots": 11,
            "p50_ms": 8.0, "p95_ms": 20.0, "p99_ms": 31.5,
            "queue_depth": 3.0, "batch_occupancy": 5.25,
            "shed_rate": 0.032, "slo_violation_rate": 0.0,
            "degraded_rate": 0.0,
            "breaker_states": {"mobilenet_v1@64": 1.0},
        }
        alerts = [{"rule": "shed-burn", "severity": "page", "firing": True,
                   "fast_value": 0.2, "slow_value": 0.15, "threshold": 0.1}]
        text = render_frame(live, alerts, parse_exposition(self.EXPOSITION),
                            title="repro serve @ x:1", frame=3)
        assert "repro serve @ x:1 — frame 3" in text
        assert "52.5 req/s" in text
        assert "p99=31.5" in text
        assert "ok=120" in text and "shed=4" in text
        assert "mobilenet_v1@64=open" in text   # 1.0 → breaker name
        assert "shed-burn" in text and "FIRING" in text

    def test_render_frame_handles_an_empty_scrape(self):
        text = render_frame({}, [], parse_exposition(""))
        assert "none yet" in text
        assert "breakers" not in text  # nothing to show


class TestChaosTelemetryBound:
    def _report(self) -> LoadReport:
        return LoadReport(
            total=10, wall_s=1.0, status_counts={"ok": 10},
            p50_ms=1.0, p95_ms=1.0, p99_ms=1.0, mean_ms=1.0, max_ms=1.0,
            mean_batch=1.0, batch_histogram={1: 10}, slo_violations=0,
            mean_simulated_ms=0.0, mode="closed",
        )

    def _chaos(self, snapshots: int) -> DrillReport:
        return DrillReport(
            scenario=SERVE,
            report=self._report(),
            wall_p99_ms=1.0,
            requests_digest="d" * 16,
            replay_digest="d" * 16,
            plan_fingerprint="f" * 16,
            victim="r0",
            faults_fired={"serve.engine": 1},
            observed={"garbage_answered": 1.0, "snapshots": snapshots},
            health_after={"ready": True},
        )

    def test_stalled_snapshot_loop_fails_the_chaos_bounds(self):
        failures = self._chaos(snapshots=1).check()
        assert any("snapshot loop did not advance" in f for f in failures)

    def test_advancing_snapshot_loop_passes(self):
        chaos = self._chaos(snapshots=5)
        assert chaos.check() == []
        assert "snapshots=5" in chaos.render()

    def test_loadgen_report_renders_attached_alerts(self):
        report = self._report()
        report.attach_alerts([Alert(
            rule="shed-burn", severity="page", firing=True,
            fast_value=0.4, slow_value=0.3, threshold=0.1,
        )])
        assert "alerts      : shed-burn=FIRING" in report.render()

"""Hedged requests: delay derivation, the rate cap, and the
exactly-once / accounting-identity properties under an induced stall."""

from __future__ import annotations

import asyncio

from repro.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.obs import get_registry
from repro.serve import InferenceRequest, ModelKey, RemoteClient, ServeConfig, Status
from repro.fleet import (
    FleetRouter,
    FleetSupervisor,
    ReplicaEndpoint,
    ReplicaState,
    RouterConfig,
)

KEY = ModelKey("mobilenet_v3_small", resolution=32)


def _router(**overrides) -> FleetRouter:
    """An unstarted router — enough for the pure delay/cap math."""
    defaults = dict(seed=0, hedge_min_samples=16, hedge_history=16,
                    hedge_floor_ms=5.0, slow_factor=4.0)
    defaults.update(overrides)
    return FleetRouter([], RouterConfig(**defaults))


def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return float(metric.value) if metric is not None else 0.0


class TestHedgeDelay:
    def test_infinite_until_min_samples(self):
        router = _router()
        assert router.hedge_delay_ms() == float("inf")
        router._forward_ms.extend([10.0] * 15)
        assert router.hedge_delay_ms() == float("inf")
        router._forward_ms.append(10.0)
        assert router.hedge_delay_ms() < float("inf")

    def test_uniform_window_returns_its_p95(self):
        router = _router()
        router._forward_ms.extend([10.0] * 16)
        assert router.hedge_delay_ms() == 10.0

    def test_floor_on_microsecond_fleets(self):
        router = _router()
        router._forward_ms.extend([0.5] * 16)
        assert router.hedge_delay_ms() == 5.0

    def test_polluted_window_is_clamped_at_slow_factor_p50(self):
        # Once a gray replica's stalled completions pollute the window,
        # the raw p95 collapses toward the stall itself — a p95 hedge
        # delay would then wait out the very latency hedging exists to
        # cut.  The clamp keeps the delay anchored to the healthy p50.
        router = _router()
        router._forward_ms.extend([10.0] * 12 + [200.0] * 4)
        delay = router.hedge_delay_ms()
        assert delay == 4.0 * 10.0  # slow_factor * p50, not ~200
        assert delay < 200.0


class TestHedgeCap:
    def _link(self, router: FleetRouter, rid: str):
        link = router.add_replica(ReplicaEndpoint(rid, "127.0.0.1", 1))
        link.health.record_probe(True)
        return link

    def test_no_hedging_before_min_samples(self):
        router = _router()
        primary = self._link(router, "r0")
        assert not router._hedge_allowed(primary)

    def test_cap_limits_fired_fraction(self):
        router = _router(hedge_rate_cap=0.05)
        primary = self._link(router, "r0")
        router._forward_ms.extend([10.0] * 16)
        router._routed = 100
        router._hedges_fired = 4
        assert router._hedge_allowed(primary)       # 4 < 0.05 * 100
        router._hedges_fired = 5
        assert not router._hedge_allowed(primary)   # cap reached

    def test_slow_primary_bypasses_the_cap(self):
        # A known-gray primary is the case hedging exists for: the rate
        # cap must not strand its lanes behind a 20x hop.
        router = _router(hedge_rate_cap=0.0, slow_windows=1)
        primary = self._link(router, "r0")
        router._forward_ms.extend([10.0] * 16)
        assert not router._hedge_allowed(primary)
        primary.health.record_latency_window(True)
        assert primary.health.state is ReplicaState.SLOW
        assert router._hedge_allowed(primary)

    def test_disabled_hedging_never_fires(self):
        router = _router(hedge=False)
        primary = self._link(router, "r0")
        router._forward_ms.extend([10.0] * 16)
        assert not router._hedge_allowed(primary)


class TestHedgeRace:
    def test_primary_answer_as_the_delay_expires_is_kept(self):
        # The primary can settle in the loop pass where the hedge delay
        # expires.  Its answer must be returned, not taken for a failed
        # forward: the caller would drop it and reroute the request.
        router = _router()
        primary = router.add_replica(ReplicaEndpoint("r0", "127.0.0.1", 1))
        backup = router.add_replica(ReplicaEndpoint("r1", "127.0.0.1", 2))
        answer = {"status": Status.OK.value}

        async def forward(link, request, envelope, received, budget0):
            return answer

        router._forward = forward
        router.hedge_delay_ms = lambda: 0.0
        reply, served, fired = asyncio.run(router._forward_hedged(
            InferenceRequest(key=KEY), {}, primary, backup, 0.0, None))
        assert (reply, served, fired) == (answer, primary, False)


class _StubClient:
    """Stands in for a replica link's RemoteClient: answers after a delay."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    async def request(self, request, return_output=False, timings=False):
        await asyncio.sleep(self.delay_s)
        return {"status": Status.OK.value}

    async def cancel(self, request_id):
        return None


class TestHedgeWindow:
    def test_reaped_loser_stays_out_of_the_delay_window(self):
        # A stalled primary that lost the race lands long after its
        # backup answered.  Counting it would drag the hedge delay
        # toward the stall; it must still reach the replica's own
        # latency accounting, which SLOW detection reads.
        router = _router()
        primary = router.add_replica(ReplicaEndpoint("r0", "127.0.0.1", 1))
        backup = router.add_replica(ReplicaEndpoint("r1", "127.0.0.1", 2))
        primary.client = _StubClient(0.2)
        backup.client = _StubClient(0.0)
        router.hedge_delay_ms = lambda: 10.0

        async def main():
            result = await router._forward_hedged(
                InferenceRequest(key=KEY), {}, primary, backup, 0.0, None)
            await asyncio.gather(*router._reap_tasks)
            return result

        reply, served, fired = asyncio.run(main())
        assert served is backup and fired
        assert len(router._forward_ms) == 1
        assert router._forward_ms[0] < 100.0
        assert primary.ok == 1 and primary.ewma_ms >= 200.0
        assert not router._reaped

    def test_spill_drops_the_saturated_primary_to_the_back(self):
        # A primary over the spill bound (for example a stalled replica
        # still holding reaped hedge losers) must become neither the next
        # attempt nor the hedge backup of the promoted replica.
        router = _router(spill_outstanding=8)
        links = [router.add_replica(ReplicaEndpoint(f"r{i}", "127.0.0.1", i))
                 for i in range(3)]
        for link in links:
            link.health.record_probe(True)
        lane = FleetRouter.lane(KEY.canonical(), False)
        primary = router.candidates(lane)[0]
        primary.outstanding = 8
        order = router.candidates(lane)
        assert len(order) == 3
        assert order[0] is not primary
        assert order[-1] is primary


class TestHedgeProperties:
    def test_exactly_once_responses_and_accounting_identity(self):
        # Property run: stall the lane's primary so hedges actually
        # fire, then check the two invariants the wire contract hangs
        # off — every request id answered exactly once, and
        # fleet.hedges == fleet.hedge_wins + fleet.hedge_losses.
        config = ServeConfig(engine="analytical", preload=[KEY],
                             slo_ms=30000.0, compile=False, telemetry=False)

        async def main():
            supervisor = FleetSupervisor(base_config=config, mode="inproc")
            endpoints = [await supervisor.spawn() for _ in range(3)]
            router = FleetRouter(endpoints, RouterConfig(
                seed=0, probe_interval_s=0.05,
                hedge_rate_cap=1.0, hedge_min_samples=8, hedge_history=64,
            ))
            await router.start()
            lane = FleetRouter.lane(KEY.canonical(), False)
            victim = router.ring.lookup(lane)
            install_plan(FaultPlan(seed=5, faults=[
                FaultSpec(point="fleet.forward", kind="stall",
                          probability=1.0, max_fires=None, after=12,
                          delay_ms=60.0, tag=victim),
            ]))
            before = {name: _counter(name) for name in
                      ("fleet.hedges", "fleet.hedge_wins",
                       "fleet.hedge_losses")}
            client = RemoteClient("127.0.0.1", router.port, timeout_s=30.0)
            await client.connect()
            answered: dict = {}
            try:
                async def one(seed: int) -> None:
                    response = await client.submit(
                        InferenceRequest(key=KEY, input_seed=seed))
                    assert response.status is Status.OK
                    answered[response.request_id] = answered.get(
                        response.request_id, 0) + 1

                for batch in range(20):
                    await asyncio.gather(*(one(batch * 4 + i)
                                           for i in range(4)))
            finally:
                clear_plan()
                await client.close()
                await router.stop()
                await supervisor.stop()

            assert len(answered) == 80
            assert all(count == 1 for count in answered.values())
            hedges = _counter("fleet.hedges") - before["fleet.hedges"]
            wins = _counter("fleet.hedge_wins") - before["fleet.hedge_wins"]
            losses = (_counter("fleet.hedge_losses")
                      - before["fleet.hedge_losses"])
            assert hedges > 0  # the stall actually provoked hedging
            assert hedges == wins + losses
            assert wins > 0    # ... and backups actually rescued requests

        asyncio.run(main())

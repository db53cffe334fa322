"""End-to-end request tracing: span chains across the serving stack.

Two contracts from ``docs/observability.md``:

* **replay determinism** — two same-seed runs produce identical span
  *topologies* (names + parent/child links; ids and timestamps differ);
* **completeness** — every answered request's trace carries the full
  client→transport→admit→queue→request chain, even under chaos.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.faults import clear_plan
from repro.fleet.chaos import SERVE, run_drill
from repro.obs import get_tracer
from repro.obs.tracing import span_topology, trace_chains
from repro.serve import (
    InferenceRequest,
    InferenceServer,
    ModelKey,
    RemoteClient,
    ServeConfig,
    WorkloadSpec,
    run_workload,
    serve_tcp,
)

KEY = ModelKey("mobilenet_v3_small", resolution=32)

#: The server-side stages every answered request must traverse.
SERVER_STAGES = {"serve.admit", "serve.queue", "serve.request"}


@pytest.fixture
def tracer():
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.clear()


def _config(**overrides) -> ServeConfig:
    defaults = dict(engine="analytical", preload=[KEY], slo_ms=30000.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _run_in_process(spec: WorkloadSpec):
    async def main():
        async with InferenceServer(_config()) as server:
            return await run_workload(server.submit, spec)

    return asyncio.run(main())


def _ok_request_chains(events):
    """trace_id → event list, for traces whose serve.request answered OK."""
    out = {}
    for trace_id, chain in trace_chains(events).items():
        if any(e["name"] == "serve.request"
               and e.get("args", {}).get("status") == "ok" for e in chain):
            out[trace_id] = chain
    return out


class TestReplayDeterminism:
    def test_same_seed_runs_produce_identical_topologies(self, tracer):
        # One sequential client keeps batch formation deterministic too,
        # so the comparison covers the batch traces, not just requests.
        spec = WorkloadSpec(keys=[KEY], requests=12, clients=1, seed=7)
        _run_in_process(spec)
        first_events = tracer.events()
        first = span_topology(first_events)
        tracer.clear()
        _run_in_process(spec)
        second_events = tracer.events()
        assert span_topology(second_events) == first
        # The ids themselves differ — determinism is structural.
        ids = lambda evs: {e["args"]["trace_id"] for e in evs
                           if "trace_id" in e.get("args", {})}
        assert ids(first_events).isdisjoint(ids(second_events))

    def test_different_seeds_still_share_the_request_shape(self, tracer):
        # The request-chain shape is workload-independent; only counts vary.
        spec = WorkloadSpec(keys=[KEY], requests=6, clients=1, seed=1)
        _run_in_process(spec)
        request_shapes = {
            shape for shape in span_topology(tracer.events())
            if any(name == "serve.request" for name, _ in shape)
        }
        assert request_shapes == {(
            ("serve.admit", None),
            ("serve.queue", "serve.admit"),
            ("serve.request", "serve.queue"),
        )}


class TestChainCompleteness:
    def test_every_answered_request_links_client_to_engine(self, tracer):
        async def main():
            async with InferenceServer(_config()) as server:
                tcp = await serve_tcp(server, host="127.0.0.1", port=0)
                port = tcp.sockets[0].getsockname()[1]
                client = RemoteClient("127.0.0.1", port)
                try:
                    await client.connect()
                    spec = WorkloadSpec(keys=[KEY], requests=30, clients=4,
                                        seed=0)
                    return await run_workload(client.submit, spec)
                finally:
                    await client.close()
                    tcp.close()
                    await tcp.wait_closed()

        report = asyncio.run(main())
        assert report.ok == 30
        events = tracer.events()
        chains = _ok_request_chains(events)
        assert len(chains) == 30
        for chain in chains.values():
            names = {e["name"] for e in chain}
            assert names >= {"client.request", "transport.request"} | SERVER_STAGES
        # Batch spans fan out: each names the request traces it served.
        batch_trace_ids = set()
        for event in events:
            if event["name"] == "serve.batch":
                batch_trace_ids.update(event["args"].get("trace_ids", []))
        assert batch_trace_ids >= set(chains)

    def test_responses_carry_their_trace_id(self, tracer):
        async def main():
            async with InferenceServer(_config()) as server:
                return await server.submit(InferenceRequest(key=KEY))

        response = asyncio.run(main())
        assert response.ok
        assert response.trace_id is not None
        chain = trace_chains(get_tracer().events())[response.trace_id]
        assert {e["name"] for e in chain} >= SERVER_STAGES

    def test_tracing_disabled_leaves_responses_unlinked(self):
        async def main():
            async with InferenceServer(_config()) as server:
                return await server.submit(InferenceRequest(key=KEY))

        response = asyncio.run(main())
        assert response.ok
        assert response.trace_id is None


class TestChaosCompleteness:
    def test_answered_requests_stay_fully_chained_under_chaos(self, tracer):
        clear_plan()
        spec = WorkloadSpec(keys=[KEY], requests=60, clients=4, seed=0)
        try:
            chaos = asyncio.run(run_drill(
                SERVE, spec, config=_config(workers=2),
            ))
        finally:
            clear_plan()
        assert chaos.report.ok > 0
        chains = _ok_request_chains(tracer.events())
        assert len(chains) >= chaos.report.ok
        for chain in chains.values():
            names = {e["name"] for e in chain}
            assert names >= {"client.request", "transport.request"} | SERVER_STAGES

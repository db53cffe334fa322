"""The benchmark's own tests: seeded streams, latency accounting, output
checks that can fail, and span wrappers that leave no trace behind."""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

import repro.systolic.memory as memory
from repro.obs.export import validate_trace
from repro.serve.request import make_input

import metrics
import run
import serving
import workloads
from checks import (INT8_MAX_ABS_ERROR, Outcome, Record, References,
                    check_records)
from spans import SpanRecorder, _lookup
from stream import Item, Lane, closed_stream, open_stream, stream_digest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

FLOAT = Lane("mobilenet_v3_small", "full", 32)
INT8 = Lane("mobilenet_v3_small", "full", 32, int8=True)


# ------------------------------------------------------------------ streams

@pytest.mark.parametrize("make", [
    lambda seed: closed_stream(seed, serving.SERVE_CLOSED.lanes, 200),
    lambda seed: open_stream(seed, serving.SERVE_OPEN.lanes, 40.0, 5.0),
])
def test_stream_digest_follows_the_seed(make):
    assert stream_digest(make(7)) == stream_digest(make(7))
    assert stream_digest(make(7)) != stream_digest(make(8))


def test_open_stream_has_fixed_count_and_sorted_due_times():
    items = open_stream(3, serving.SERVE_OPEN.lanes, 40.0, 25.0)
    assert len(items) == 1000
    due = [item.due_s for item in items]
    assert due == sorted(due) and 0.0 <= due[0] and due[-1] <= 25.0
    assert {item.lane for item in items} == {0, 1, 2, 3}
    echoed = [i for i in items if i.return_output]
    assert echoed and all(serving.SERVE_OPEN.lanes[i.lane].int8
                          for i in echoed)


# ------------------------------------------------------- latency accounting

def test_record_times_from_due_and_reports_lag():
    record = Record(Item(0, 1), due=10.0, sent=10.030, done=10.050)
    assert record.latency_ms == pytest.approx(50.0)
    assert record.lag_ms == pytest.approx(30.0)


class _StallingClient:
    """Answers after 1 ms; the first call blocks the event loop 60 ms,
    so the requests due behind it go out late."""

    def __init__(self):
        self.calls = 0

    async def request(self, request, return_output=False):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.060)
        await asyncio.sleep(0.001)
        return {"status": "ok"}


def test_open_loop_counts_a_stall_against_later_requests():
    schedule = [Item(0, seed, due_s=0.010 * seed) for seed in range(4)]
    records = asyncio.run(serving.open_loop(_StallingClient(), [FLOAT],
                                            schedule))
    assert [r.item for r in records] == schedule
    late = records[1:]
    assert all(r.lag_ms >= 25.0 for r in late)
    assert all(r.latency_ms >= r.lag_ms for r in late)
    # Timed from the due time, the stall shows in the latency of the
    # requests behind it, not only in the one that caused it.
    assert records[1].latency_ms >= 45.0
    assert workloads._p([r.lag_ms for r in records], 99) >= 45.0


# ----------------------------------------------------------- output checks

@pytest.fixture(scope="module")
def refs():
    return References([FLOAT, INT8])


def _ok(item, **reply):
    return Record(item, due=0.0, sent=0.0, done=0.001,
                  reply={"status": "ok", **reply})


def _int8(refs, seed, batch, echo=False, **reply):
    item = Item(1, seed, return_output=echo)
    if echo:
        reply.setdefault("output",
                         refs.int8_output(1, seed, batch).tolist())
    reply.setdefault("digest", refs.int8_digest(1, seed, batch))
    reply.setdefault("batch_size", batch)
    return _ok(item, **reply)


def test_checks_pass_true_answers(refs):
    records = [_ok(Item(0, seed), digest=refs.digest(0, seed))
               for seed in (1, 2)]
    records += [_int8(refs, 1, 1, echo=True), _int8(refs, 2, 3)]
    assert refs.int8_error(1, 1) < INT8_MAX_ABS_ERROR
    outcome = check_records(records, [FLOAT, INT8], refs)
    assert outcome.passed == [True, True, True, True]


def test_int8_reference_ignores_batch_mates(refs):
    """The int8 check assumes a served answer depends only on its input
    and the plan's batch size; the reference runs a batch of copies."""
    expected = refs.int8_output(1, 2, 3)
    shape = tuple(refs._executor(INT8).network.input_shape)
    batch = np.stack([make_input(shape, 2), make_input(shape, 7),
                      make_input(shape, 8)])
    assert np.array_equal(refs._int8_plans[(1, 3)].run(batch)[0], expected)


class _CorruptedRefs:
    """Delegates to real references, but corrupts one input seed's
    digests or reports an int8 envelope miss for it."""

    def __init__(self, refs, bad_seed, int8_miss=False):
        self.refs, self.bad_seed, self.int8_miss = refs, bad_seed, int8_miss
        self.max_batch = refs.max_batch

    def _corrupt(self, seed, digest):
        if seed == self.bad_seed and not self.int8_miss:
            return "0" * len(digest)
        return digest

    def digest(self, lane, seed):
        return self._corrupt(seed, self.refs.digest(lane, seed))

    def int8_digest(self, lane, seed, batch):
        return self._corrupt(seed, self.refs.int8_digest(lane, seed, batch))

    def int8_output(self, lane, seed, batch):
        return self.refs.int8_output(lane, seed, batch)

    def int8_error(self, lane, seed):
        if seed == self.bad_seed and self.int8_miss:
            return 2 * INT8_MAX_ABS_ERROR
        return self.refs.int8_error(lane, seed)


def test_corrupted_reference_digest_drops_ok_ratio(refs):
    records = [_ok(Item(0, seed), digest=refs.digest(0, seed))
               for seed in (1, 2, 3)]
    outcome = check_records(records, [FLOAT], _CorruptedRefs(refs, 2))
    assert outcome.passed == [True, False, True]
    assert outcome.wrong_outputs == 1
    phase = serving.Phase(records, elapsed_s=1.0, cpu_s=0.1, digest="")
    e2e = workloads._serve_e2e(serving.SERVE_CLOSED, phase, outcome.passed)
    assert e2e["ok_ratio"] == pytest.approx(2 / 3)


def test_wrong_int8_answers_are_wrong(refs):
    records = [
        _int8(refs, 1, 2, digest="0" * 64),
        _int8(refs, 1, 2, batch_size=3),      # digest of another batch size
        _int8(refs, 1, 2, echo=True,
              output=(refs.int8_output(1, 1, 2) + 1e-3).tolist()),
        _int8(refs, 1, 2, batch_size=None),
    ]
    outcome = check_records(records, [FLOAT, INT8], refs)
    assert outcome.failed == outcome.wrong_outputs == len(records)
    assert set(outcome.reasons) == {"int8_digest_mismatch",
                                    "int8_output_mismatch"}
    corrupted = check_records([_int8(refs, 2, 1)], [FLOAT, INT8],
                              _CorruptedRefs(refs, 2))
    assert corrupted.wrong_outputs == 1


def test_refusals_and_int8_errors_fail(refs):
    missing = _int8(refs, 1, 1, echo=True)
    del missing.reply["output"]
    records = [
        Record(Item(0, 1), 0.0, 0.0, 0.1, reply={"status": "shed"}),
        Record(Item(0, 1), 0.0, 0.0, 0.1, reply={"status": "expired"}),
        Record(Item(0, 1), 0.0, 0.0, 0.1, error="ConnectionError: gone"),
        _ok(Item(0, 1), digest=refs.digest(0, 1), degraded=True),
        _int8(refs, 1, 4, echo=True),
        missing,
    ]
    outcome = check_records(records, [FLOAT, INT8],
                            _CorruptedRefs(refs, 1, int8_miss=True))
    assert outcome.failed == len(records)
    # Refusals and int8 envelope misses fail the operation; only a broken
    # bit-exact digest counts as a wrong answer.
    assert outcome.wrong_outputs == 0
    assert set(outcome.reasons) == {
        "status_shed", "status_expired", "transport", "degraded",
        "int8_error", "missing_output"}


def test_int8_envelope_is_worst_over_batch_sizes(refs):
    errors = [float(np.max(np.abs(refs.int8_output(1, 1, b)
                                  - refs.output(1, 1))))
              for b in range(1, refs.max_batch + 1)]
    assert refs.int8_error(1, 1) == pytest.approx(max(errors))


def test_outcome_merge():
    a, b = Outcome([True]), Outcome([False])
    b.reasons["transport"] = 1
    a.merge(b)
    assert (a.attempted, a.failed, dict(a.reasons)) == (2, 1, {"transport": 1})


# ----------------------------------------------------------------- tracing

def _targets():
    targets = workloads.instrument(SpanRecorder()).targets()
    return [(obj, attr, _lookup(obj, attr)) for obj, attr in targets]


def test_wrappers_are_gone_after_a_traced_run(tmp_path):
    before = _targets()
    result = workloads.sweep_traced(seed=1, seconds=0.01)
    after = _targets()
    assert [v for *_, v in after] == [v for *_, v in before]
    assert all(not hasattr(v, "__wrapped__") for *_, v in after)
    assert result.failed == 0 and result.attempted == 10
    assert result.metrics["latency.total_cycles"] == 37_319_130
    assert result.metrics["registry.hot_compiles"] == 0
    path = tmp_path / "trace.json"
    result.recorder.write(str(path), {"workload": "sim-sweep"})
    payload = json.loads(path.read_text())
    assert validate_trace(payload) == len(result.recorder.spans) > 0
    names = {e["name"] for e in payload["traceEvents"]}
    assert {"perfbench.pass", "executor.run", "functional.gemm",
            "latency.estimate", "models.build_model"} <= names


def test_wrappers_are_gone_after_a_failing_call():
    before = _targets()
    recorder = SpanRecorder()
    with pytest.raises(TypeError):
        with workloads.instrument(recorder):
            memory.traffic_report(None)
    assert [v for *_, v in _targets()] == [v for *_, v in before]
    span, = recorder.named("memory.traffic_report")
    assert span.end_ns >= span.start_ns


def test_spans_link_by_request_id():
    recorder = SpanRecorder()
    root = recorder.open("client.request", request_id=5)
    recorder.close(root)
    child = recorder.open("server.submit", request_id=5)
    assert child.parent_id == root.span_id
    with recorder.span("outer") as outer:
        inner = recorder.open("inner")
    assert inner.parent_id == outer.span_id


# --------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == [
        "serve-open", "sim-sweep"]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.E2E]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    # serve-closed stays runnable but is not gated (perfbench/README.md).
    assert set(workloads.WORKLOADS) - {w["name"] for w in spec["workloads"]} \
        == {"serve-closed"}

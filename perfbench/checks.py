"""Output checks for the serving workloads.

Checks run after the timed phase, over the :class:`Record` of every
request sent.  A request passes when the server answered OK, undegraded,
and its output is right:

* float lanes — the wire ``digest`` equals the SHA-256 of the eager
  :class:`~repro.nn.graph.GraphExecutor` batch-1 output for the same
  input seed (the bit-exact serving contract, checked across the wire);
* int8 lanes — the wire ``digest`` equals the SHA-256 of the
  benchmark's own int8 plan output for the same input at the batch size
  the reply names (an int8 answer depends on its input and the plan's
  batch size only, not on what it was batched with), and an echoed
  output equals that same tensor;
* int8 lanes that echoed their output — max abs logit error against
  eager below :data:`INT8_MAX_ABS_ERROR` (the ``docs/runtime.md`` int8
  policy) at *every* batch size from 1 to ``max_batch``: the server may
  run an input at any of them depending on how arrivals happen to batch,
  so the verdict is the worst of them and does not depend on timing.

Shed, expired, errored and degraded responses fail.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import core, models
from repro.nn.compile import CompileConfig, compile_executor
from repro.nn.graph import GraphExecutor
from repro.nn.tensor import Tensor
from repro.serve.request import make_input, output_digest

from stream import Item, Lane

#: ``docs/runtime.md`` int8 envelope: max abs logit error against eager.
INT8_MAX_ABS_ERROR = 0.1


@dataclass
class Record:
    """One request as the client saw it (perf_counter seconds)."""

    item: Item
    due: float
    sent: float
    done: float = 0.0
    reply: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """Client latency from when the request was due."""
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        """How late the generator sent the request."""
        return (self.sent - self.due) * 1000.0


class References:
    """Eager batch-1 outputs per (lane, input seed), built on demand.

    The reference models are built here from the public model builders,
    independently of the server's registry; int8 references come from
    int8 plans compiled here from those models, one per batch size.
    """

    def __init__(self, lanes: Sequence[Lane], max_batch: int = 8) -> None:
        self.lanes = list(lanes)
        self.max_batch = max_batch
        self._executors: Dict[Tuple, GraphExecutor] = {}
        self._outputs: Dict[Tuple[int, int], np.ndarray] = {}
        self._int8_plans: Dict[Tuple, object] = {}
        self._int8_outputs: Dict[Tuple[int, int, int], np.ndarray] = {}
        self._int8_errors: Dict[Tuple[int, int], float] = {}

    def _executor(self, lane: Lane) -> GraphExecutor:
        key = lane.key()
        executor = self._executors.get(key)
        if executor is None:
            network = models.build_model(key.network,
                                         resolution=key.resolution)
            if key.variant is not None:
                network = core.to_fuseconv(network, key.fuse_variant)
            executor = GraphExecutor(network, seed=key.seed)
            executor.eval()
            self._executors[key] = executor
        return executor

    def output(self, lane: int, input_seed: int) -> np.ndarray:
        out = self._outputs.get((lane, input_seed))
        if out is None:
            executor = self._executor(self.lanes[lane])
            x = make_input(tuple(executor.network.input_shape), input_seed)
            out = executor(Tensor(x[None])).data[0]
            self._outputs[(lane, input_seed)] = out
        return out

    def digest(self, lane: int, input_seed: int) -> str:
        return output_digest(self.output(lane, input_seed))

    def int8_output(self, lane: int, input_seed: int,
                    batch: int) -> np.ndarray:
        """Row 0 of the int8 plan for ``batch`` on a batch of this input."""
        key = (lane, input_seed, batch)
        out = self._int8_outputs.get(key)
        if out is None:
            executor = self._executor(self.lanes[lane])
            shape = tuple(executor.network.input_shape)
            plan = self._int8_plans.get((lane, batch))
            if plan is None:
                plan = compile_executor(executor, (batch,) + shape,
                                        CompileConfig.int8())
                self._int8_plans[(lane, batch)] = plan
            x = make_input(shape, input_seed)
            out = np.array(plan.run(np.repeat(x[None], batch, axis=0))[0])
            self._int8_outputs[key] = out
        return out

    def int8_digest(self, lane: int, input_seed: int, batch: int) -> str:
        return output_digest(self.int8_output(lane, input_seed, batch))

    def int8_error(self, lane: int, input_seed: int) -> float:
        """Worst max abs logit error against eager over batch sizes
        1..``max_batch``."""
        key = (lane, input_seed)
        error = self._int8_errors.get(key)
        if error is None:
            ref = self.output(lane, input_seed).astype(np.float64)
            error = max(float(np.max(np.abs(
                self.int8_output(lane, input_seed, batch) - ref)))
                for batch in range(1, self.max_batch + 1))
            self._int8_errors[key] = error
        return error


@dataclass
class Outcome:
    """Per-record verdicts plus a tally of failure reasons."""

    passed: List[bool] = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.passed)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    @property
    def wrong_outputs(self) -> int:
        """Answers that broke a bit-exact contract: float against eager,
        int8 against the int8 plan of the served batch size.

        Int8 answers outside their error bound and refusals fail the
        operation without counting here: the int8 bound is a statistical
        quality envelope of an approximate flavor, not an exactness
        contract (see perfbench/README.md).
        """
        return (self.reasons["digest_mismatch"]
                + self.reasons["int8_digest_mismatch"]
                + self.reasons["int8_output_mismatch"])

    def merge(self, other: "Outcome") -> None:
        self.passed.extend(other.passed)
        self.reasons.update(other.reasons)


def verdict(record: Record, lanes: Sequence[Lane], refs) -> Optional[str]:
    """``None`` when the record passes, else the failure reason."""
    if record.error is not None:
        return "transport"
    reply = record.reply or {}
    status = reply.get("status")
    if status != "ok":
        return f"status_{status}"
    if reply.get("degraded"):
        return "degraded"
    item = record.item
    if not lanes[item.lane].int8:
        if reply.get("digest") != refs.digest(item.lane, item.input_seed):
            return "digest_mismatch"
        return None
    batch = int(reply.get("batch_size") or 0)
    if not 1 <= batch <= refs.max_batch:
        return "int8_digest_mismatch"
    if reply.get("digest") != refs.int8_digest(item.lane, item.input_seed,
                                               batch):
        return "int8_digest_mismatch"
    if item.return_output:
        out = reply.get("output")
        if out is None:
            return "missing_output"
        ref = refs.int8_output(item.lane, item.input_seed, batch)
        if not np.array_equal(np.asarray(out, dtype=ref.dtype), ref):
            return "int8_output_mismatch"
        if not refs.int8_error(item.lane, item.input_seed) < INT8_MAX_ABS_ERROR:
            return "int8_error"
    return None


def check_records(records: Sequence[Record], lanes: Sequence[Lane],
                  refs) -> Outcome:
    outcome = Outcome()
    for record in records:
        reason = verdict(record, lanes, refs)
        outcome.passed.append(reason is None)
        if reason is not None:
            outcome.reasons[reason] += 1
    return outcome

"""Seeded request streams for the serving workloads.

The benchmark owns its inputs: a workload seed expands into a list of
:class:`Item` records (lane, input seed, whether the output is echoed,
and for the open loop the due time), and the program only ever sees the
requests built from them.  :func:`stream_digest` fingerprints a stream
so a result records exactly which inputs it measured.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.serve.request import InferenceRequest, ModelKey

#: Distinct input seeds per stream; the output checks compute one eager
#: reference per (lane, input seed) pair, so the pool bounds their cost.
INPUT_POOL = 32

#: Every k-th int8 request asks for its output tensor on the wire, so
#: the int8 error bound can be checked against eager.
INT8_OUTPUT_EVERY = 8


@dataclass(frozen=True)
class Lane:
    """One served model plus its plan flavor (the batcher's lane key)."""

    network: str
    variant: Optional[str]
    resolution: int
    int8: bool = False

    def key(self) -> ModelKey:
        return ModelKey(self.network, self.variant, self.resolution)

    @property
    def label(self) -> str:
        return self.key().canonical() + (" int8" if self.int8 else "")


@dataclass(frozen=True)
class Item:
    """One planned request."""

    lane: int
    input_seed: int
    return_output: bool = False
    due_s: float = 0.0  #: open loop: offset from the start of the schedule

    def request(self, lanes: Sequence[Lane]) -> InferenceRequest:
        lane = lanes[self.lane]
        return InferenceRequest(key=lane.key(), input_seed=self.input_seed,
                                int8=lane.int8)


def _items(rng: np.random.Generator, lanes: Sequence[Lane], count: int,
           due: Optional[np.ndarray] = None) -> List[Item]:
    pool = rng.integers(0, 2**31 - 1, size=INPUT_POOL)
    lane_ix = rng.integers(0, len(lanes), size=count)
    seed_ix = rng.integers(0, INPUT_POOL, size=count)
    items, int8_seen = [], 0
    for i in range(count):
        lane = int(lane_ix[i])
        echo = False
        if lanes[lane].int8:
            echo = int8_seen % INT8_OUTPUT_EVERY == 0
            int8_seen += 1
        items.append(Item(lane=lane, input_seed=int(pool[seed_ix[i]]),
                          return_output=echo,
                          due_s=0.0 if due is None else float(due[i])))
    return items


def closed_stream(seed: int, lanes: Sequence[Lane], count: int) -> List[Item]:
    """``count`` requests that closed-loop users consume in order."""
    return _items(np.random.default_rng([seed, 1]), lanes, count)


def open_stream(seed: int, lanes: Sequence[Lane], rate: float,
                seconds: float) -> List[Item]:
    """Poisson arrivals at ``rate`` per second over ``seconds``.

    The count is fixed at ``round(rate * seconds)`` and the due times are
    sorted uniform draws over the window — a Poisson process conditioned
    on its count — so every seed yields the same number of samples.
    """
    rng = np.random.default_rng([seed, 2])
    count = max(1, int(round(rate * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    return _items(rng, lanes, count, due)


def stream_digest(items: Sequence[Item]) -> str:
    """SHA-256 over the canonical JSON of a stream."""
    text = json.dumps([asdict(item) for item in items], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()

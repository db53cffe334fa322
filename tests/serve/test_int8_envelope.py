"""The int8 envelope on serve-open's int8 lanes, at batch 1 and batch 8.

``docs/runtime.md`` bounds an int8 plan's max abs logit error against
eager at 0.1.  Calibration is one fixed image set per model, so an int8
answer depends on its input alone, not on the batch size it rode in:
batch-1 and batch-8 plans agree to float rounding (the float ``Linear``
head's BLAS call is the one batch-dependent step).  Inputs are the
serving inputs of seeds 0..119 (``make_input``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor
from repro.serve import ModelKey, ModelRegistry
from repro.serve.request import make_input

#: The ``docs/runtime.md`` int8 bound: max abs logit error against eager.
INT8_MAX_ABS_ERROR = 0.1
#: How far a batch-8 answer may sit from the batch-1 answer.
BATCH_AGREEMENT = 1e-6
INPUT_SEEDS = range(120)

KEYS = (ModelKey("mobilenet_v3_small", "full", resolution=32),
        ModelKey("mobilenet_v1", "half", resolution=32))


@pytest.mark.parametrize("key", KEYS, ids=[k.canonical() for k in KEYS])
def test_int8_within_envelope_at_batch_1_and_8(key):
    model = ModelRegistry().get(key)
    shape = tuple(model.input_shape)
    x = np.stack([make_input(shape, seed) for seed in INPUT_SEEDS])
    eager = model.executor(Tensor(x)).data.astype(np.float64)
    one = model.plan_for(1, flavor="int8")
    eight = model.plan_for(8, flavor="int8")
    at_1 = np.concatenate([one.run(x[i:i + 1]) for i in range(len(x))])
    at_8 = np.concatenate([eight.run(x[i:i + 8])
                           for i in range(0, len(x), 8)])
    for batch, got in ((1, at_1), (8, at_8)):
        err = np.max(np.abs(got - eager), axis=1)
        worst = int(np.argmax(err))
        assert err[worst] < INT8_MAX_ABS_ERROR, (
            f"batch {batch}: input seed {worst} is {err[worst]:.4f} "
            f"from eager; {int(np.sum(err >= INT8_MAX_ABS_ERROR))} of "
            f"{len(err)} over the bound")
    assert np.max(np.abs(at_8 - at_1)) <= BATCH_AGREEMENT

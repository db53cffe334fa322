"""Plan outputs do not depend on the OpenBLAS thread count.

A running :class:`~repro.serve.InferenceServer` holds numpy's OpenBLAS
pool at one thread (:mod:`repro.serve.blas`), while a client or a
benchmark that checks its answers computes references at the default
count.  The rule "an output that crossed the wire matches the in-process
output bit for bit" therefore needs every plan flavor — compiled and run
— and the eager forward to give the same bytes at either count.  The
lanes are ``serve-open``'s two nets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor
from repro.serve import ModelKey, ModelRegistry, make_input
from repro.serve.blas import find_openblas

KEYS = (ModelKey("mobilenet_v3_small", variant="full", resolution=32),
        ModelKey("mobilenet_v1", variant="half", resolution=32))
BATCHES = (1, 2, 8)


def _outputs(threads: int) -> dict:
    """Compile and run every flavor, plus eager, at ``threads`` threads."""
    blas = find_openblas()
    saved = blas.threads
    blas.set_threads(threads)
    try:
        registry = ModelRegistry()
        out = {}
        for key in KEYS:
            model = registry.get(key)
            for batch in BATCHES:
                x = np.stack([make_input(model.input_shape, seed)
                              for seed in range(batch)])
                for flavor in model.FLAVORS:
                    plan = model.plan_for(batch, flavor=flavor)
                    out[key, flavor, batch] = plan.run(x).tobytes()
                eager = model.executor(Tensor(x)).data
                out[key, "eager", batch] = eager.tobytes()
        return out
    finally:
        blas.set_threads(saved)


@pytest.mark.skipif(find_openblas() is None,
                    reason="numpy does not run on OpenBLAS here")
def test_outputs_equal_at_one_and_default_threads():
    # At least two threads, so the multi-threaded kernels run even where
    # the default count is already one.
    many = max(2, find_openblas().threads)
    single, multi = _outputs(1), _outputs(many)
    assert len(single) == len(KEYS) * len(BATCHES) * 4
    mismatched = [k for k in single if single[k] != multi[k]]
    assert not mismatched

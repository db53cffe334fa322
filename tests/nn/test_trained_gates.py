"""Fidelity gates that need a trained MobileNet-V3-Small.

Accuracy only means something on a *trained* model: with random weights
the median top-2 logit margin sits below the int8 error floor, so argmax
agreement measures tie-breaking noise, not fidelity.  This module trains
V3-Small once on the repo's synthetic task and gates two plan flavors on
the held-out split:

* **int8** (calibrated on the training batches): top-1 drops at most
  1 pp against the folded float plan, and the plan really quantizes
  (>= 10 int8 ops).
* **sparse** (75 % magnitude pruning, column combining at γ=8 on a
  32×32 broadcast array — Kung et al.'s claim that a pruned, packed net
  keeps its accuracy after fine-tuning): the analytical packed schedule
  is >= 1.5x faster than the dense one, top-1 drops at most 1 pp after
  the gradual masked fine-tune, and packing produces packed columns.
  The γ=1 identity packing degrades to the dense fold schedule by
  construction, so its cycles equal the dense cycles exactly.

The sparse path prunes gradually (50 % -> fine-tune -> 75 % ->
fine-tune, masks re-applied after every optimizer step, BatchNorm
running stats recalibrated at the end): one-shot 75 % pruning collapses
this model to chance and plain fine-tuning cannot climb back inside the
budget.  It packs with the ``"disjoint"`` conflict policy: under
``"prune"`` every fresh compile performs new destructive merges, so no
fine-tuned weight set survives recompilation, while disjoint packing
never mutates weights and the plan equals the pruned eager network.

Wall-clock speed is not gated here (a pass/fail must not depend on
timing noise); ``perfbench`` records each flavor's plan latency as
``compile.ms_per_image.{exact,folded,int8}`` (perfbench/README.md).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import (
    CompileConfig,
    GraphExecutor,
    RMSprop,
    SyntheticSpec,
    Tensor,
    TrainConfig,
    compile_executor,
    make_synthetic,
    train,
)
from repro.nn import functional as F
from repro.nn.passes import Pipeline, apply_pruning
from repro.systolic import ArrayConfig, estimate_network

#: 32 px so the served resolution is gated; noise/shift tuned so ten
#: epochs land the eager model around 95 % — high enough that a
#: quantization or pruning regression is visible.
SPEC = SyntheticSpec(
    num_classes=6,
    image_size=32,
    noise=0.8,
    max_shift=2,
    train_per_class=40,
    test_per_class=48,
)
CONFIG = TrainConfig(epochs=10, batch_size=24, lr=0.01, seed=0)
DATA_SEED = 3
MODEL_SEED = 1
BATCH = 8

MAX_ACCURACY_DROP = 0.01
MIN_INT8_OPS = 10

SPARSITY = 0.75
GAMMA = 8
MIN_ANALYTICAL_SPEEDUP = 1.5
ARRAY = ArrayConfig(32, 32, broadcast=True)
#: Gradual pruning schedule: (sparsity target, fine-tune epochs, lr).
PRUNE_STAGES = ((0.5, 3, 0.003), (SPARSITY, 10, 0.002))
FINETUNE_LR_DECAY = 0.92
PRUNE_SCOPE = "global"   # pooled threshold: spares the sensitive layers
BN_RECAL_PASSES = 2      # settle running stats after the masked updates
PACK_CONFLICT = "disjoint"


def _plan_accuracy(plan, data) -> float:
    correct = 0
    for images, labels in data.batches(BATCH, shuffle=False):
        if len(images) != BATCH:
            continue  # plans are compiled for one batch shape
        logits = plan.run(images.astype(np.float32))
        correct += int((logits.argmax(axis=1) == labels).sum())
    usable = (len(data) // BATCH) * BATCH
    return correct / usable


def _masked_finetune(executor, masks, train_data, epochs: int,
                     lr: float, seed: int = 0) -> None:
    """Fine-tune under fixed keep masks (re-applied after every step).

    Optimizer momentum would otherwise regrow the pruned weights;
    clamping after each step keeps the zero pattern — and therefore the
    packing's column supports — exact.
    """
    shaped = []
    for name, mask in masks.items():
        module = executor.module_for(name)
        shaped.append((module,
                       np.asarray(mask, bool).reshape(module.weight.data.shape)))
    rng = np.random.default_rng(seed)
    optimizer = RMSprop(executor.parameters(), lr=lr, alpha=0.9,
                        momentum=0.9, weight_decay=0.0)
    executor.train()
    for _ in range(epochs):
        for images, labels in train_data.batches(CONFIG.batch_size, rng=rng):
            optimizer.zero_grad()
            logits = executor(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            optimizer.step()
            for module, mask in shaped:
                module.weight.data *= mask
        optimizer.lr *= FINETUNE_LR_DECAY
    executor.eval()


def _bn_recalibrate(executor, train_data) -> None:
    """Refresh BatchNorm running stats on the pruned, fine-tuned net."""
    executor.train()
    for _ in range(BN_RECAL_PASSES):
        for images, _ in train_data.batches(CONFIG.batch_size, shuffle=False):
            executor(Tensor(images))
    executor.eval()


def _sparse_config(gamma: int = GAMMA,
                   sparsity: float = SPARSITY) -> CompileConfig:
    return CompileConfig.sparse(sparsity=sparsity, gamma=gamma,
                                conflict=PACK_CONFLICT, scope=PRUNE_SCOPE)


@pytest.fixture(scope="module")
def trained():
    """Train V3-Small once; measure the dense folded and int8 plans."""
    train_data, test_data = make_synthetic(SPEC, seed=DATA_SEED)
    net = build_model("mobilenet_v3_small", num_classes=SPEC.num_classes,
                      resolution=SPEC.image_size)
    executor = GraphExecutor(net, seed=MODEL_SEED)
    train(executor, train_data, test_data, CONFIG)
    executor.eval()

    shape = (BATCH,) + tuple(net.input_shape)
    calibration = [
        images.astype(np.float32)
        for images, _ in train_data.batches(BATCH, shuffle=False)
        if len(images) == BATCH
    ]
    folded = compile_executor(executor, shape)
    int8 = compile_executor(executor, shape,
                            CompileConfig.int8(calibration_data=calibration))
    return SimpleNamespace(
        net=net, executor=executor, shape=shape,
        train_data=train_data, test_data=test_data,
        folded_accuracy=_plan_accuracy(folded, test_data),
        int8_accuracy=_plan_accuracy(int8, test_data),
        int8_ops=int8.stats.int8_ops,
    )


@pytest.fixture(scope="module")
def sparse(trained):
    """Prune, fine-tune and pack the trained model (in place).

    Each stage prunes with the pass pipeline (global magnitude
    threshold), bakes the zeros into the executor, then fine-tunes under
    the masks.  The dense measurements in ``trained`` were taken before.
    """
    executor, shape = trained.executor, trained.shape
    for stage_sparsity, epochs, lr in PRUNE_STAGES:
        config = _sparse_config(sparsity=stage_sparsity)
        tf = Pipeline.from_config(config).run(executor, trained.net, config)
        apply_pruning(executor, tf)
        _masked_finetune(executor, tf.masks, trained.train_data,
                         epochs=epochs, lr=lr)
    _bn_recalibrate(executor, trained.train_data)

    # Disjoint packing never mutates weights, so this plan is the
    # fine-tuned eager network exactly (same masks, same values).
    plan = compile_executor(executor, shape, _sparse_config())
    gamma1 = compile_executor(executor, shape, _sparse_config(gamma=1))
    return SimpleNamespace(
        accuracy=_plan_accuracy(plan, trained.test_data),
        packed_columns=plan.stats.packed_columns,
        dense_cycles=estimate_network(trained.net, ARRAY).total_cycles,
        packed_cycles=estimate_network(trained.net, ARRAY,
                                       packing=plan.packing).total_cycles,
        gamma1_cycles=estimate_network(trained.net, ARRAY,
                                       packing=gamma1.packing).total_cycles,
    )


class TestInt8:
    def test_top1_drop_within_budget(self, trained):
        drop = trained.folded_accuracy - trained.int8_accuracy
        assert drop <= MAX_ACCURACY_DROP, (
            f"int8 top-1 {trained.int8_accuracy:.4f} vs folded "
            f"{trained.folded_accuracy:.4f}")

    def test_plan_is_quantized(self, trained):
        assert trained.int8_ops >= MIN_INT8_OPS


class TestSparse:
    def test_packed_schedule_speedup(self, sparse):
        speedup = sparse.dense_cycles / sparse.packed_cycles
        assert speedup >= MIN_ANALYTICAL_SPEEDUP, (
            f"dense {sparse.dense_cycles} vs packed {sparse.packed_cycles}")

    def test_top1_drop_within_budget_after_finetune(self, trained, sparse):
        drop = trained.folded_accuracy - sparse.accuracy
        assert drop <= MAX_ACCURACY_DROP, (
            f"sparse top-1 {sparse.accuracy:.4f} vs folded "
            f"{trained.folded_accuracy:.4f}")

    def test_packing_produces_packed_columns(self, sparse):
        assert sparse.packed_columns > 0

    def test_gamma1_equals_dense_schedule(self, sparse):
        assert sparse.gamma1_cycles == sparse.dense_cycles

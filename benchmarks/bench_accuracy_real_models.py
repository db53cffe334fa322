"""E3 (secondary) — the *actual* zoo architectures train end-to-end.

While ``bench_table1_accuracy.py`` carries the accuracy-ordering claim at
a scale where operator differences are resolvable, this harness
demonstrates the stronger structural property: the very networks the
latency experiments analyze (here a width-0.25 MobileNet-V1 and its
to_fuseconv() transforms — the same graphs, via GraphExecutor) train
end-to-end with the paper's recipe.

At ~200k parameters and CPU-minutes of training, all three variants learn
far above chance but their accuracy deltas are within seed noise — too
small a scale to resolve the paper's ≤1 % ImageNet gaps, which is recorded
as such in EXPERIMENTS.md.
"""

from repro.analysis import format_table
from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.nn import GraphExecutor, SyntheticSpec, TrainConfig, make_synthetic, train

SPEC = SyntheticSpec(
    num_classes=6,
    image_size=16,
    noise=1.2,
    max_shift=2,
    train_per_class=40,
    test_per_class=20,
)
# 14 epochs puts every variant's best accuracy well clear of the 2x-chance
# assertion; at 10 the runs were still mid-transient and ulp-level gradient
# changes (e.g. a different float summation order in conv backward) could
# swing a variant below the line.
CONFIG = TrainConfig(epochs=14, batch_size=24, lr=0.01, seed=0)


def _train_all():
    train_data, test_data = make_synthetic(SPEC, seed=5)
    baseline = build_model(
        "mobilenet_v1", num_classes=SPEC.num_classes, resolution=16, width_mult=0.25
    )
    results = {}
    for label, net in (
        ("baseline", baseline),
        ("FuSe-Full", to_fuseconv(baseline, FuSeVariant.FULL)),
        ("FuSe-Half", to_fuseconv(baseline, FuSeVariant.HALF)),
    ):
        model = GraphExecutor(net, seed=1)
        history = train(model, train_data, test_data, CONFIG)
        results[label] = (model.num_parameters(), history.best_test_accuracy)
    return results


def test_real_model_accuracy(save):
    results = _train_all()
    rows = [
        [label, f"{params:,}", f"{acc * 100:.1f}%"]
        for label, (params, acc) in results.items()
    ]
    text = format_table(
        ["variant", "params", "best test accuracy"],
        rows,
        title=(
            "Zoo-architecture training (MobileNet-V1 @0.25x width, 16px, "
            "synthetic task) — structural end-to-end check"
        ),
    )
    save("accuracy_real_models", text)

    chance = 1.0 / SPEC.num_classes
    for label, (_, acc) in results.items():
        assert acc > 2 * chance, f"{label} failed to learn"
    # Parameter ordering is exact (it is the Table I accounting).
    assert results["FuSe-Full"][0] > results["baseline"][0] > results["FuSe-Half"][0]

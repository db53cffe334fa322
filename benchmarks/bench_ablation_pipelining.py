"""Extension — calibration ablation: fold pipelining sensitivity.

SCALE-Sim-family simulators differ in how much per-fold overhead (operand
skew fill) consecutive folds amortize.  This ablation recomputes the
Table I speed-ups under both ends of that modeling choice:

* ``pipelined_folds=False`` — every fold pays full fill+drain (our
  default, conservative);
* ``pipelined_folds=True``  — back-to-back folds hide the fill skew.

The pipelined model moves the speed-up factors toward the paper's
reported values (e.g. MobileNet-V1 FuSe-Full 4.9× vs the paper's 4.1×,
versus 6.2× under the conservative model), supporting the calibration
explanation in EXPERIMENTS.md — the *ordering* is identical under both.
"""

from repro.analysis import TABLE1, format_table
from repro.core import ALL_VARIANTS, to_fuseconv
from repro.models import PAPER_NETWORKS, build_model
from repro.systolic import ArrayConfig, estimate_network


def _speedups(pipelined: bool):
    array = ArrayConfig.square(64, pipelined_folds=pipelined)
    out = {}
    for name in PAPER_NETWORKS:
        net = build_model(name)
        base = estimate_network(net, array).total_cycles
        for variant in ALL_VARIANTS:
            cycles = estimate_network(to_fuseconv(net, variant, array), array).total_cycles
            out[(name, variant.label)] = base / cycles
    return out


def test_pipelining_ablation(save):
    conservative = _speedups(False)
    pipelined = _speedups(True)

    rows = []
    for (name, label), value in conservative.items():
        paper = TABLE1.get((name, label))
        rows.append([
            name,
            label,
            f"{value:.2f}x",
            f"{pipelined[(name, label)]:.2f}x",
            f"{paper.speedup:.2f}x" if paper else "-",
        ])
    text = format_table(
        ["network", "variant", "conservative", "pipelined", "paper"],
        rows,
        title="Calibration ablation — fold pipelining vs Table I speed-ups",
    )
    save("ablation_pipelining", text)

    # The reproducible claims: every variant still wins under both models,
    # and on average the pipelined model sits closer to the paper's factors
    # (individual Half-variant cases may tick up slightly).
    for key, value in conservative.items():
        assert value > 1.0 and pipelined[key] > 1.0
    ratios_cons = [
        value / TABLE1[key].speedup for key, value in conservative.items()
    ]
    ratios_pipe = [
        value / TABLE1[key].speedup for key, value in pipelined.items()
    ]
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(ratios_pipe) < mean(ratios_cons)

"""Extension — §VI: Neural Operator Search ablation.

Not a paper table (the paper proposes NOS as future work); this harness
shows the capacity/latency Pareto frontier that per-layer operator search
spans, with the paper's fixed variants as endpoints.
"""

from collections import Counter

from repro.analysis import format_table
from repro.models import build_model
from repro.nos import pareto_front
from repro.systolic import PAPER_ARRAY, estimate_network


def test_nos_pareto(save):
    baseline = build_model("mobilenet_v2")
    base_cycles = estimate_network(baseline, PAPER_ARRAY).total_cycles

    front = pareto_front(baseline, points=6)

    rows = []
    for result in front:
        net = result.build(baseline)
        cycles = estimate_network(net, PAPER_ARRAY).total_cycles
        mix = Counter(result.choices.values())
        rows.append([
            f"{result.cycles:,}",
            f"{mix[None]}/{mix[1]}/{mix[2]}",
            f"{result.params:,}",
            f"{base_cycles / cycles:.2f}x",
        ])
    text = format_table(
        ["cycle budget (searched layers)", "mix dw/full/half",
         "searched params", "net speedup"],
        rows,
        title="SVI extension — NOS capacity/latency frontier, MobileNet-V2",
    )
    save("nos_pareto", text)

    # Frontier endpoints are the paper's corner cases.
    assert all(c == 2 for c in front[0].choices.values())      # all-Half
    assert all(c is None for c in front[-1].choices.values())  # baseline
    # Capacity grows monotonically along the budget axis.
    params = [r.params for r in front]
    assert params == sorted(params)

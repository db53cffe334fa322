"""E1 — Table I: MACs and parameters for all 25 network variants.

Regenerates the "MACs (millions)" and "Params (millions)" columns of
Table I and prints them next to the paper's values.  These are analytic
counts, so the agreement should be tight (a few percent, down to counting
conventions).
"""

from repro.analysis import format_table, table1


def _rows():
    out = []
    for row in table1():
        paper = row.paper
        out.append(
            [
                row.network,
                row.variant or "baseline",
                f"{row.macs_millions:.0f}",
                f"{paper.macs_millions:.0f}" if paper else "-",
                f"{row.params_millions:.2f}",
                f"{paper.params_millions:.2f}" if paper else "-",
            ]
        )
    return out


def test_table1_counts(save):
    rows = _rows()
    text = format_table(
        ["network", "variant", "MACs(M)", "paper", "Params(M)", "paper"],
        rows,
        title="Table I — operation and parameter counts (measured vs paper)",
    )
    save("table1_counts", text)
    assert len(rows) == 25

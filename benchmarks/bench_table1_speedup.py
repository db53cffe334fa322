"""E2 — Table I: inference speed-up on the 64×64 systolic array.

Regenerates the "Speedup" column: cycle counts from the SCALE-Sim-style
output-stationary model with the broadcast dataflow for FuSe layers.
Absolute factors differ from the paper's simulator calibration; the
ordering (Half > Full > 50 % variants > 1×) and magnitudes (3×–10×) are
the reproduced shape.
"""

from repro.analysis import calibration_stats, format_table, table1


def test_table1_speedup(save):
    # One process-pool task per network (see repro.systolic.parallel).
    rows = table1(jobs=2)
    stats = calibration_stats(rows)
    table_rows = [
        [
            row.network,
            row.variant or "baseline",
            f"{row.cycles:,}",
            f"{row.speedup:.2f}x",
            f"{row.paper.speedup:.2f}x" if row.paper else "-",
        ]
        for row in rows
    ]
    text = format_table(
        ["network", "variant", "cycles@64x64", "speedup", "paper"],
        table_rows,
        title="Table I — speed-up on a 64x64 systolic array (measured vs paper)",
    )
    save("table1_speedup", text + "\n\ncalibration: " + stats.summary())

    by_key = {(r.network, r.variant): r.speedup for r in rows}
    for network in {r.network for r in rows}:
        assert by_key[(network, "FuSe-Half")] > by_key[(network, "FuSe-Full")] > 1.0
        assert by_key[(network, "FuSe-Full")] > by_key[(network, "FuSe-Full-50%")]
    # The ordering across all 20 variant rows matches the paper's almost
    # perfectly, and the magnitude inflation stays below 2x.
    assert stats.rank_correlation > 0.9
    assert stats.mean_ratio < 1.7

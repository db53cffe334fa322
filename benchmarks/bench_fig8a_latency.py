"""E4 — Fig. 8(a): absolute latency of every network variant on 64×64.

The paper plots latency (we report milliseconds at the configured clock
and raw cycles).  Shape: baselines slowest, Half variants fastest.
"""

from repro.analysis import figure_8a, format_table

VARIANT_ORDER = ["baseline", "FuSe-Full", "FuSe-Half", "FuSe-Full-50%", "FuSe-Half-50%"]


def test_fig8a_latency(save, save_data):
    # One process-pool task per network (see repro.systolic.parallel).
    data = figure_8a(jobs=2)
    rows = [
        [network] + [f"{data[network][v]:.3f}" for v in VARIANT_ORDER]
        for network in data
    ]
    text = format_table(
        ["network"] + [f"{v} (ms)" for v in VARIANT_ORDER],
        rows,
        title="Fig 8(a) — latency on a 64x64 array (ms @ 700 MHz)",
    )
    save("fig8a_latency", text)
    save_data("fig8a_latency", ["network"] + VARIANT_ORDER, rows)

    for network, series in data.items():
        assert series["FuSe-Half"] < series["FuSe-Full"] < series["baseline"]

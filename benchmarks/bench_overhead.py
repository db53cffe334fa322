"""E8 — §V-B.5: area/power overhead of the broadcast dataflow.

Paper (Bluespec + Synopsys DC, NanGate 45 nm, 32×32 array): 4.35 % area,
2.25 % power.  Our structural cell-inventory model reproduces the ratios.
"""

from repro.analysis import AREA_OVERHEAD, POWER_OVERHEAD, format_table
from repro.hw import broadcast_overhead


def test_overhead(save):
    report = broadcast_overhead(32)
    rows = [
        ["area", f"{report.area_overhead * 100:.2f}%", f"{AREA_OVERHEAD * 100:.2f}%"],
        ["power", f"{report.power_overhead * 100:.2f}%", f"{POWER_OVERHEAD * 100:.2f}%"],
        ["base area (mm^2)", f"{report.base_area_um2 / 1e6:.3f}", "-"],
        ["base power (mW)", f"{report.base_power_uw / 1e3:.1f}", "-"],
    ]
    text = format_table(
        ["metric", "measured", "paper"],
        rows,
        title="SV-B.5 — broadcast-link overhead on a 32x32 array (45 nm)",
    )
    save("overhead", text)

    assert abs(report.area_overhead - AREA_OVERHEAD) < 0.01
    assert abs(report.power_overhead - POWER_OVERHEAD) < 0.01


def test_overhead_size_sweep(save):
    sizes = (8, 16, 32, 64, 128)
    reports = [broadcast_overhead(s) for s in sizes]
    rows = [
        [f"{r.size}x{r.size}", f"{r.area_overhead * 100:.2f}%",
         f"{r.power_overhead * 100:.2f}%"]
        for r in reports
    ]
    text = format_table(
        ["array", "area overhead", "power overhead"],
        rows,
        title="Broadcast-link overhead vs array size (extension)",
    )
    save("overhead_sweep", text)

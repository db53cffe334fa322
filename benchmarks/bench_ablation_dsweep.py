"""Extension — §VI: sweeping the design knob D beyond the paper.

The paper evaluates D ∈ {1 (Full), 2 (Half)} and suggests "other variants
to sensitively trade-off latency and accuracy".  This ablation extends the
knob to D ∈ {1, 2, 4, 8}: larger D spatially filters only 2C/D channels,
shrinking parameters, MACs and latency monotonically — at an accuracy cost
this harness proxies by the parameter count.

The sweep itself is :func:`repro.analysis.d_knob_sweep`, run here with a
two-worker process pool (one D point per task).
"""

from repro.analysis import DEFAULT_D_VALUES, d_knob_sweep, format_table


def test_d_sweep(save):
    rows = d_knob_sweep("mobilenet_v2", jobs=2)
    text = format_table(
        ["variant", "MACs(M)", "params(M)", "cycles", "speedup"],
        [[label, f"{m:.0f}", f"{p:.2f}", f"{c:,}", f"{s:.2f}x"]
         for label, m, p, c, s in rows],
        title="SVI extension — design knob D sweep, MobileNet-V2 @64x64",
    )
    save("ablation_dsweep", text)

    assert len(rows) == 1 + len(DEFAULT_D_VALUES)
    # Larger D ⇒ monotonically fewer params/MACs and higher speed-up.
    fuse = rows[1:]
    params = [p for _, _, p, _, _ in fuse]
    speedups = [s for _, _, _, _, s in fuse]
    assert params == sorted(params, reverse=True)
    assert speedups == sorted(speedups)
    assert all(s > 1 for s in speedups)

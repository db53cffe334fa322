"""Extension — silicon budgets: SRAM buffer sizing and inference energy.

Two deployment-facing artifacts from the extension models:

* minimum double-buffered SRAM for stall-free execution (the latency
  model's "operands always ready" assumption, priced in KiB);
* energy per inference, split into MAC / data movement / static, for the
  baselines and their FuSe-Half transforms — on the paper's FP16 array
  and on the same array with 8-bit PEs (int8 MACs, int32 accumulation),
  matching the compiled int8 inference plans.

Cycle counts are identical at both datawidths (same array, same fold
schedule); energy is not — int8 MACs are ~5x cheaper and SRAM traffic
moves half the bits, so the 8-bit columns quantify what the quantized
serving path buys in silicon terms.
"""

from repro.analysis import format_table
from repro.core import FuSeVariant, to_fuseconv
from repro.hw import energy_report
from repro.models import PAPER_NETWORKS, build_model
from repro.systolic import PAPER_ARRAY, network_buffer_requirement

INT8_ARRAY = PAPER_ARRAY.with_datawidth(8)


def _measure():
    rows = []
    for name in PAPER_NETWORKS:
        baseline = build_model(name)
        fuse = to_fuseconv(baseline, FuSeVariant.HALF, PAPER_ARRAY)
        buffers = network_buffer_requirement(baseline, PAPER_ARRAY)
        base_energy = energy_report(baseline, PAPER_ARRAY)
        fuse_energy = energy_report(fuse, PAPER_ARRAY)
        base_int8 = energy_report(baseline, INT8_ARRAY)
        fuse_int8 = energy_report(fuse, INT8_ARRAY)
        rows.append(
            (
                name,
                buffers.total_kib,
                base_energy.total_uj,
                fuse_energy.total_uj,
                base_energy.total_uj / fuse_energy.total_uj,
                base_int8.total_uj,
                fuse_int8.total_uj,
                fuse_energy.total_uj / fuse_int8.total_uj,
            )
        )
    return rows


def test_buffers_and_energy(save):
    rows = _measure()
    text = format_table(
        ["network", "SRAM (KiB)", "baseline uJ", "FuSe-Half uJ",
         "energy gain", "base int8 uJ", "FuSe int8 uJ", "int8 gain"],
        [
            [name, f"{kib:.0f}", f"{base:.0f}", f"{fuse:.0f}",
             f"{gain:.2f}x", f"{b8:.0f}", f"{f8:.0f}", f"{g8:.2f}x"]
            for name, kib, base, fuse, gain, b8, f8, g8 in rows
        ],
        title="Extension — buffer sizing and energy per inference "
              "(64x64, FP16 vs int8 PEs)",
    )
    save("buffers_energy", text)

    for name, kib, base, fuse, gain, b8, f8, g8 in rows:
        assert 4 < kib < 4096, name          # sane SRAM ballpark
        assert gain > 1.5, name               # FuSe saves real energy
        assert b8 < base and f8 < fuse, name  # 8-bit PEs always cheaper
        assert g8 > 1.5, name                 # int8 at least halves energy

"""Mapping FuSeConv 1D convolutions with the row-broadcast dataflow (§IV-C).

A ``FuSeConv1D`` layer is a bank of independent depthwise 1D convolutions.
With the paper's modified dataflow each array row executes one 1D
convolution: the row's weight values are *broadcast* to all PEs of the row
(one weight per cycle), inputs stream systolically along the row, and each
PE holds one output element stationary (Fig. 6/7).

Fold accounting: with ``G`` independent 1D convolutions, each producing
``L_out`` outputs with kernel ``K``,

* the array runs ``ceil(G / rows)`` row batches ("folds" over convolutions,
  Fig. 7(b): multiple channels mapped simultaneously when the input is
  smaller than the array), and
* each conv needs ``ceil(L_out / cols)`` column folds.

A fold with ``r`` active rows and ``c`` active columns costs ``(c - 1)``
cycles of input skew fill, ``K`` broadcast-MAC cycles, and ``r`` cycles to
drain the stationary outputs down the columns — mirroring the GEMM model in
:mod:`repro.systolic.gemm` with the ``(r - 1)`` weight-skew term removed,
because the broadcast link delivers a weight to a whole row in one cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .config import ArrayConfig
from .gemm import GemmDims, MappingStats, _tile_counts


@dataclass(frozen=True)
class Conv1DBank:
    """A bank of independent 1D convolutions (one FuSeConv filter group).

    Attributes:
        num_convs: number of independent 1D convolutions ``G`` (=
            channels × surviving orthogonal lines after stride subsampling).
        out_length: outputs per convolution ``L_out``.
        kernel: filter taps ``K``.
        stride: stride along the convolution axis (affects how many input
            values stream through a row, hence SRAM reads).
    """

    num_convs: int
    out_length: int
    kernel: int
    stride: int = 1

    def __post_init__(self) -> None:
        if min(self.num_convs, self.out_length, self.kernel, self.stride) <= 0:
            raise ValueError(f"Conv1DBank fields must be positive, got {self}")

    @property
    def macs(self) -> int:
        return self.num_convs * self.out_length * self.kernel


@dataclass(frozen=True)
class BroadcastFold:
    """One fold of the broadcast dataflow: ``r`` convs × ``c`` outputs each."""

    r: int
    c: int
    k: int
    stride: int = 1

    @property
    def cycles(self) -> int:
        """Input skew fill + broadcast MACs + output drain."""
        return (self.c - 1) + self.k + self.r

    @property
    def pipelined_cycles(self) -> int:
        """Steady-state cost with back-to-back folds (fill skew hidden)."""
        return self.k + self.r

    @property
    def active_mac_cycles(self) -> int:
        return self.r * self.c * self.k

    @property
    def input_reads(self) -> int:
        """Input values streamed into each active row for this fold."""
        per_row = (self.c - 1) * self.stride + self.k
        return self.r * per_row


def iter_broadcast_folds(bank: Conv1DBank, array: ArrayConfig) -> Iterator[BroadcastFold]:
    """Folds of a 1D-convolution bank over the array."""
    for g0 in range(0, bank.num_convs, array.rows):
        r = min(array.rows, bank.num_convs - g0)
        for l0 in range(0, bank.out_length, array.cols):
            c = min(array.cols, bank.out_length - l0)
            yield BroadcastFold(r=r, c=c, k=bank.kernel, stride=bank.stride)


def broadcast_conv1d_stats(bank: Conv1DBank, array: ArrayConfig) -> MappingStats:
    """Latency/utilization of a 1D-convolution bank with broadcast links.

    Raises:
        ValueError: if the array has no broadcast links — the caller should
            fall back to the im2col mapping (a single-column GEMM per conv)
            in that case.
    """
    if not array.broadcast:
        raise ValueError(
            "broadcast dataflow requested on an array without broadcast links; "
            "use fallback_conv1d_gemms() instead"
        )
    stats = MappingStats()
    first = True
    for r, nr in _tile_counts(bank.num_convs, array.rows):
        for c, nc in _tile_counts(bank.out_length, array.cols):
            count = nr * nc
            fold = BroadcastFold(r=r, c=c, k=bank.kernel, stride=bank.stride)
            if array.pipelined_folds:
                cycles = count * fold.pipelined_cycles
                if first:
                    cycles += fold.c - 1
                    first = False
            else:
                cycles = count * fold.cycles
            stats.cycles += cycles
            stats.folds += count
            stats.active_mac_cycles += count * fold.active_mac_cycles
            stats.occupied_pe_cycles += cycles * array.num_pes
            # Weights: K values per active row per fold (broadcast, read once).
            stats.sram_reads += count * (fold.r * fold.k + fold.input_reads)
            stats.sram_writes += count * fold.r * fold.c
    assert stats.active_mac_cycles == bank.macs
    return stats


def fallback_conv1d_gemms(bank: Conv1DBank):
    """im2col mapping of a 1D-conv bank for arrays *without* broadcast links.

    Each 1D convolution becomes a ``(L_out × K) · (K × 1)`` GEMM — the
    degenerate single-column mapping of §III-B, provided so the cost of the
    missing link is measurable.  Returned as one ``(gemm, count)`` pair:
    the bank's ``num_convs`` GEMMs are identical.
    """
    return [(GemmDims(m=bank.out_length, k=bank.kernel, n=1), bank.num_convs)]

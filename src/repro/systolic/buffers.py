"""SRAM buffer sizing (SCALE-Sim's buffer requirement analysis).

The latency model assumes edge buffers always feed the array; this module
computes how large those buffers must be for that assumption to hold with
double buffering: per fold, the input buffer must hold the fold's
streaming operands and the output buffer its results, ×2 so the next
fold's operands load while the current fold computes.

Per-fold working sets (values):

* OS GEMM fold (r×c, depth K): ``r·K`` of A + ``c·K`` of B in, ``r·c`` out;
* broadcast fold (r rows, c outputs, K taps, stride s):
  ``r·((c-1)s + K)`` input samples + ``r·K`` weights in, ``r·c`` out.

The report aggregates the maximum over all folds of all layers — the
minimum SRAM that sustains full-speed execution of the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir.network import Network
from .config import ArrayConfig, PAPER_ARRAY
from .fuse_mapping import Conv1DBank
from .gemm import GemmDims, _tile_counts
from .im2col import lower_layer
from .memory import BYTES_PER_VALUE


@dataclass(frozen=True)
class BufferRequirement:
    """Minimum buffer sizes (in values) for stall-free execution."""

    input_values: int
    output_values: int
    double_buffered: bool = True

    @property
    def input_bytes(self) -> int:
        factor = 2 if self.double_buffered else 1
        return factor * self.input_values * BYTES_PER_VALUE

    @property
    def output_bytes(self) -> int:
        factor = 2 if self.double_buffered else 1
        return factor * self.output_values * BYTES_PER_VALUE

    @property
    def total_kib(self) -> float:
        return (self.input_bytes + self.output_bytes) / 1024.0

    def merge(self, other: "BufferRequirement") -> "BufferRequirement":
        return BufferRequirement(
            input_values=max(self.input_values, other.input_values),
            output_values=max(self.output_values, other.output_values),
            double_buffered=self.double_buffered,
        )


def gemm_buffer_requirement(dims: GemmDims, array: ArrayConfig) -> BufferRequirement:
    """Largest per-fold working set of one GEMM."""
    worst_in = 0
    worst_out = 0
    for r, _ in _tile_counts(dims.m, array.rows):
        for c, _ in _tile_counts(dims.n, array.cols):
            worst_in = max(worst_in, r * dims.k + c * dims.k)
            worst_out = max(worst_out, r * c)
    return BufferRequirement(input_values=worst_in, output_values=worst_out)


def bank_buffer_requirement(bank: Conv1DBank, array: ArrayConfig) -> BufferRequirement:
    """Largest per-fold working set of one broadcast 1D-conv bank."""
    worst_in = 0
    worst_out = 0
    for r, _ in _tile_counts(bank.num_convs, array.rows):
        for c, _ in _tile_counts(bank.out_length, array.cols):
            stream = (c - 1) * bank.stride + bank.kernel
            worst_in = max(worst_in, r * stream + r * bank.kernel)
            worst_out = max(worst_out, r * c)
    return BufferRequirement(input_values=worst_in, output_values=worst_out)


def network_buffer_requirement(
    network: Network, array: Optional[ArrayConfig] = None
) -> BufferRequirement:
    """Minimum SRAM buffers that sustain the whole network at full speed."""
    array = array or PAPER_ARRAY
    worst = BufferRequirement(input_values=0, output_values=0)
    for node in network:
        lowered = lower_layer(node.layer, node.in_shape, node.out_shape)
        # A count repeats its op's folds; it never enlarges one.
        for op, _ in lowered.ops:
            if isinstance(op, Conv1DBank):
                requirement = bank_buffer_requirement(op, array)
            else:
                requirement = gemm_buffer_requirement(op, array)
            worst = worst.merge(requirement)
    return worst

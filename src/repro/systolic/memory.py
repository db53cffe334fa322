"""SRAM / DRAM traffic accounting for layers mapped onto the array.

The latency model (§V-A.3) assumes edge buffers always feed the array; this
module quantifies what that assumption costs: how many values stream from
SRAM (including im2col duplication), how many unique values must come from
DRAM, and the resulting reuse factor per layer.  Useful for the ablation
discussion — depthwise convolution is not only slow, it also re-reads
inputs with *zero* reuse across the array (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir.counting import op_class
from ..ir.network import Network, Node
from .config import ArrayConfig, PAPER_ARRAY
from .im2col import ARRAY_LAYERS
from .latency import mapping_stats

#: The paper uses FP16 weights and activations (§V-A.2).
BYTES_PER_VALUE = 2


@dataclass(frozen=True)
class LayerTraffic:
    """Traffic accounting for one node."""

    name: str
    kind: str
    op_class: str
    sram_reads: int
    sram_writes: int
    unique_inputs: int
    unique_weights: int
    unique_outputs: int

    @property
    def dram_bytes(self) -> int:
        """Bytes moved if every unique value crosses DRAM exactly once."""
        return BYTES_PER_VALUE * (
            self.unique_inputs + self.unique_weights + self.unique_outputs
        )

    @property
    def sram_bytes(self) -> int:
        return BYTES_PER_VALUE * (self.sram_reads + self.sram_writes)

    @property
    def read_amplification(self) -> float:
        """SRAM reads per unique operand value (≥ 1; 1 = perfect reuse)."""
        unique = self.unique_inputs + self.unique_weights
        return self.sram_reads / unique if unique else 0.0


@dataclass
class TrafficReport:
    """Traffic accounting for a whole network."""

    network: str
    array: ArrayConfig
    layers: List[LayerTraffic]

    @property
    def total_sram_reads(self) -> int:
        return sum(l.sram_reads for l in self.layers)

    @property
    def total_sram_writes(self) -> int:
        return sum(l.sram_writes for l in self.layers)

    @property
    def total_dram_bytes(self) -> int:
        return sum(l.dram_bytes for l in self.layers)

    @property
    def mean_read_amplification(self) -> float:
        unique = sum(l.unique_inputs + l.unique_weights for l in self.layers)
        return self.total_sram_reads / unique if unique else 0.0


def layer_traffic(node: Node, array: ArrayConfig) -> Optional[LayerTraffic]:
    """Traffic for one node, or None for layers with no array compute."""
    if not isinstance(node.layer, ARRAY_LAYERS):
        return None
    stats = mapping_stats(node.layer, node.in_shape, node.out_shape, array)
    if stats.cycles == 0:
        return None
    c_in, h_in, w_in = node.in_shape
    c_out, h_out, w_out = node.out_shape
    return LayerTraffic(
        name=node.name,
        kind=node.kind,
        op_class=op_class(node.layer),
        sram_reads=stats.sram_reads,
        sram_writes=stats.sram_writes,
        unique_inputs=c_in * h_in * w_in,
        unique_weights=node.params(),
        unique_outputs=c_out * h_out * w_out,
    )


def traffic_report(network: Network, array: Optional[ArrayConfig] = None) -> TrafficReport:
    """Per-layer traffic for a whole network (default array: the paper's 64×64)."""
    array = array or PAPER_ARRAY
    layers = []
    for node in network:
        row = layer_traffic(node, array)
        if row is not None:
            layers.append(row)
    return TrafficReport(network=network.name, array=array, layers=layers)

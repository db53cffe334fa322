"""Network latency estimation on a systolic array (the paper's §V-A.3 model).

Adds up, per layer, the cycles to load operands, compute MACs, communicate
partials systolically and flush outputs — nothing else (no cache model, no
DRAM stalls), exactly the simplification the paper adopts from SCALE-Sim.

Entry points:

* :func:`estimate_layer` — one layer on one array;
* :func:`estimate_network` — whole network, with per-node, per-operator-class
  and per-block breakdowns (feeding Table I, Fig. 8a/b/c).

Cost is paid only for what reaches the array.  :func:`estimate_network`
skips nodes outside :data:`~repro.systolic.im2col.ARRAY_LAYERS` (BN,
activations, pooling, plumbing: zero cycles) before any lookup, and a
lowered layer is a histogram of ``(op, count)`` pairs, so the ``C``
identical GEMMs of a depthwise layer are priced once and scaled.

Observability: :func:`mapping_stats` results are memoized on
``(layer, shapes, array, batch, packing)`` — design sweeps and Table I
re-estimate the same depthwise shapes constantly — with
``latency.cache.hit`` / ``latency.cache.miss`` counters on the default
registry.  With the tracer enabled (``--trace-out``) the cache is
bypassed so every network estimate emits its full
``network → layer → fold`` span tree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.counting import op_class
from ..ir.layer import LayerSpec, Shape
from ..ir.network import Network, Node
from ..ir.packing import NetworkPacking, PackedMapping
from ..obs import get_registry, get_tracer
from .config import ArrayConfig
from .dataflows import gemm_stats
from .fuse_mapping import (
    Conv1DBank,
    broadcast_conv1d_stats,
    fallback_conv1d_gemms,
)
from .gemm import MappingStats
from .im2col import ARRAY_LAYERS, lower_layer, lower_packed_layer


@dataclass
class LayerLatency:
    """Latency result for one node."""

    name: str
    kind: str
    op_class: str
    block: str
    stats: MappingStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def utilization(self) -> float:
        return self.stats.utilization


@dataclass
class NetworkLatency:
    """Latency result for a whole network."""

    network: str
    array: ArrayConfig
    layers: List[LayerLatency] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(layer.cycles for layer in self.layers)

    @property
    def total_ms(self) -> float:
        return self.array.cycles_to_ms(self.total_cycles)

    def cycles_by_class(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for layer in self.layers:
            out[layer.op_class] = out.get(layer.op_class, 0) + layer.cycles
        return out

    def cycles_by_block(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for layer in self.layers:
            key = layer.block or layer.name
            out[key] = out.get(key, 0) + layer.cycles
        return out

    def class_fractions(self) -> Dict[str, float]:
        """Latency distribution over operator classes (Fig. 8c)."""
        total = self.total_cycles
        if total == 0:
            return {}
        return {k: v / total for k, v in self.cycles_by_class().items()}

    @property
    def mean_utilization(self) -> float:
        """MAC-cycle-weighted PE utilization across the network."""
        active = sum(l.stats.active_mac_cycles for l in self.layers)
        occupied = sum(l.stats.occupied_pe_cycles for l in self.layers)
        return active / occupied if occupied else 0.0


#: Memo for :func:`mapping_stats` (bounded; cleared wholesale when full).
#: Guarded by ``_STATS_LOCK``: server worker threads estimate concurrently
#: (see ``repro.serve``), and dict reads racing a wholesale ``clear()``
#: are not something to rely on even under the GIL.
_STATS_CACHE: Dict[Tuple, MappingStats] = {}
_STATS_CACHE_MAX = 8192
_STATS_LOCK = threading.Lock()


def clear_mapping_cache() -> None:
    """Drop the memoized :func:`mapping_stats` results (thread-safe)."""
    with _STATS_LOCK:
        _STATS_CACHE.clear()


def mapping_cache_info() -> Dict[str, float]:
    """Introspection: current size and lifetime hit/miss counts of the memo.

    Counts come from the default metrics registry (``latency.cache.hit`` /
    ``latency.cache.miss``), so they also land in ``--metrics-out``
    sidecars.  Safe to call while server workers are estimating.
    """
    registry = get_registry()
    hit = registry.get("latency.cache.hit")
    miss = registry.get("latency.cache.miss")
    with _STATS_LOCK:
        size = len(_STATS_CACHE)
    return {
        "size": size,
        "max_size": _STATS_CACHE_MAX,
        "hits": hit.value if hit else 0.0,
        "misses": miss.value if miss else 0.0,
    }


def _cache_key(layer: LayerSpec, in_shape: Shape, out_shape: Shape,
               array: ArrayConfig, batch: int,
               packed: Optional[PackedMapping]) -> Tuple:
    """Memo key over every cycle-relevant degree of freedom.

    The :class:`ArrayConfig` fields are spelled out one by one so that a
    field added to the config later *must* be classified here: everything
    that changes fold shapes or cycle counts (rows, cols, broadcast link,
    dataflow, fold pipelining) is part of the key; ``frequency_mhz`` is
    deliberately excluded — it only rescales cycles to milliseconds after
    the fact, so two arrays differing only in clock share an entry.
    ``datawidth`` is likewise excluded: 8- and 16-bit PEs run the same
    fold schedule, the width only changes area/power/energy (see
    :mod:`repro.hw`).

    ``packed`` (the frozen, fully-tuple-valued
    :class:`~repro.ir.packing.PackedMapping`, or ``None`` for dense) is
    part of the key: two estimates of the same layer spec with different
    packings produce different fold schedules and must never share an
    entry — the layer spec alone carries no sparsity information.
    """
    return (
        layer, in_shape, out_shape, batch,
        array.rows, array.cols, array.broadcast,
        array.dataflow, array.pipelined_folds,
        packed,
    )


def mapping_stats(layer: LayerSpec, in_shape: Shape, out_shape: Shape,
                  array: ArrayConfig, batch: int = 1,
                  packed: Optional[PackedMapping] = None) -> MappingStats:
    """Array cycle/utilization stats for one layer spec (memoized).

    ``packed`` maps the layer onto combined physical columns (see
    :func:`repro.systolic.im2col.lower_packed_layer`); ``None`` is the
    dense schedule.
    """
    tracer = get_tracer()
    key: Optional[Tuple] = None
    if not tracer.enabled:
        # Tracing bypasses the memo so every estimate emits fold spans.
        try:
            key = _cache_key(layer, in_shape, out_shape, array, batch,
                             packed)
            with _STATS_LOCK:
                cached = _STATS_CACHE.get(key)
        except TypeError:  # unhashable layer spec: skip the cache
            key = None
        else:
            registry = get_registry()
            if cached is not None:
                registry.counter("latency.cache.hit").inc()
                return cached.copy()
            registry.counter("latency.cache.miss").inc()

    if packed is None:
        lowered = lower_layer(layer, in_shape, out_shape, batch)
    else:
        lowered = lower_packed_layer(layer, in_shape, out_shape, batch,
                                     packed)
    total = MappingStats()
    # Each distinct operation is priced once and scaled by its count (a
    # depthwise layer is one single-column GEMM × C).
    # repr(op) is only worth computing when a span will record it.
    describe = repr if tracer.enabled else (lambda op: "")
    for op, count in lowered.ops:
        if isinstance(op, Conv1DBank):
            with tracer.span("broadcast.fold", category="latency",
                             op=describe(op), repeats=count) as sp:
                if array.broadcast:
                    op_stats = broadcast_conv1d_stats(op, array)
                else:
                    # Without the proposed link, 1D convs degrade to the
                    # single-column im2col mapping (§III-B).
                    op_stats = MappingStats()
                    for dims, n in fallback_conv1d_gemms(op):
                        op_stats.merge(_scaled(gemm_stats(dims, array), n))
                sp.set(folds=op_stats.folds * count, cycles=op_stats.cycles * count)
        else:
            with tracer.span("gemm.fold", category="latency",
                             op=describe(op), repeats=count) as sp:
                op_stats = gemm_stats(op, array)
                sp.set(folds=op_stats.folds * count, cycles=op_stats.cycles * count)
        total.merge(_scaled(op_stats, count))

    if key is not None:
        with _STATS_LOCK:
            if len(_STATS_CACHE) >= _STATS_CACHE_MAX:
                _STATS_CACHE.clear()
            # Store a private copy: callers may merge() into the returned stats.
            _STATS_CACHE[key] = total.copy()
            size = len(_STATS_CACHE)
        get_registry().gauge("latency.cache.size").set(size)
    return total


def _scaled(stats: MappingStats, count: int) -> MappingStats:
    """Stats for ``count`` sequential repetitions of the same operation."""
    if count == 1:
        return stats
    return MappingStats(
        cycles=stats.cycles * count,
        folds=stats.folds * count,
        active_mac_cycles=stats.active_mac_cycles * count,
        occupied_pe_cycles=stats.occupied_pe_cycles * count,
        sram_reads=stats.sram_reads * count,
        sram_writes=stats.sram_writes * count,
    )


def estimate_layer(node: Node, array: ArrayConfig, batch: int = 1,
                   packed: Optional[PackedMapping] = None) -> LayerLatency:
    """Latency of one placed node (``packed``: its column-combined map)."""
    with get_tracer().span("layer.estimate", category="latency",
                           layer=node.name, kind=node.kind) as sp:
        result = LayerLatency(
            name=node.name,
            kind=node.kind,
            op_class=op_class(node.layer),
            block=node.block,
            stats=mapping_stats(node.layer, node.in_shape, node.out_shape,
                                array, batch, packed),
        )
        sp.set(cycles=result.cycles, folds=result.stats.folds)
    return result


def estimate_network(
    network: Network,
    array: Optional[ArrayConfig] = None,
    batch: int = 1,
    packing: Optional[NetworkPacking] = None,
) -> NetworkLatency:
    """Latency of a whole network; ``array`` defaults to the paper's 64×64.

    ``batch > 1`` estimates one pass over a batch (throughput studies);
    the paper's Table I numbers are batch 1.  ``packing`` (from the
    sparse compile pipeline, ``plan.packing``) switches every layer it
    covers to its packed schedule; uncovered layers stay dense.  Nodes
    outside :data:`~repro.systolic.im2col.ARRAY_LAYERS` cost zero cycles
    and are skipped without a memo lookup.
    """
    if array is None:
        from .config import PAPER_ARRAY

        array = PAPER_ARRAY
    registry = get_registry()
    result = NetworkLatency(network=network.name, array=array)
    with get_tracer().span("network.estimate", category="latency",
                           network=network.name,
                           array=f"{array.rows}x{array.cols}") as sp:
        for node in network:
            if not isinstance(node.layer, ARRAY_LAYERS):
                continue
            packed = None if packing is None else packing.get(node.name)
            layer_latency = estimate_layer(node, array, batch, packed)
            if layer_latency.stats.cycles:
                result.layers.append(layer_latency)
                registry.counter(
                    "latency.layer.cycles",
                    network=network.name, layer=node.name,
                ).inc(layer_latency.cycles)
                registry.counter(
                    "latency.layer.folds",
                    network=network.name, layer=node.name,
                ).inc(layer_latency.stats.folds)
        sp.set(cycles=result.total_cycles)
    registry.counter("latency.network.estimates", network=network.name).inc()
    registry.gauge("latency.network.cycles", network=network.name).set(
        result.total_cycles
    )
    registry.gauge("latency.network.pe_utilization", network=network.name).set(
        result.mean_utilization
    )
    return result


def speedup(baseline: NetworkLatency, variant: NetworkLatency) -> float:
    """Baseline-over-variant cycle ratio (Table I "Speedup" column)."""
    if variant.total_cycles == 0:
        raise ZeroDivisionError("variant network has no modeled compute")
    return baseline.total_cycles / variant.total_cycles

"""Sparsity × column-combining sweep (a Table-1-style result beyond the paper).

The paper's Table I compares dense FuSe variants against dense baselines.
This driver adds the pruning axis: each network is magnitude-pruned and
column-combined (Kung et al.) by the :mod:`repro.nn.passes` pipeline, and
the packed schedule is estimated on the analytical array model —
sweeping FuSe variant × sparsity target × array size.

The headline comparison is *how the depthwise-style compute packs*, and
it has two honest sides:

* **Channel elimination** — a pruned FuSe 1D channel is an independent
  broadcast row: when all its taps die it vanishes from the schedule
  entirely.  At 75 % sparsity on MobileNet-V3-Small that removes ~25–38 %
  of the FuSe rows per layer, while a 2D depthwise channel needs *all*
  ``k×k`` taps dead to disappear (essentially never at k=5).  FuSe packs
  better by this structural measure, and its packed depthwise-class
  compute stays several times cheaper in absolute cycles.
* **Relative recovery** — the packed/dense cycle *ratio*
  (:attr:`SparsityRow.dw_packed_ratio`) favors the 2D baseline: its
  dense schedule streams the full ``k×k`` window down a single column,
  so shrinking K to the live taps recovers a large fraction, whereas
  the dense FuSe bank is already fill/drain-dominated and has little
  waste left to recover.  This is the paper's own motivation read back
  through sparsity: depthwise maps so poorly that *any* stream
  shortening looks dramatic.

Whole-network, packed FuSe remains the fastest absolute configuration
at every sweep point even though the baseline shows the larger headline
"speedup from pruning".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core import FuSeVariant, to_fuseconv
from ..ir.counting import op_class
from ..models import build_model
from ..nn.graph import GraphExecutor
from ..obs import profiled
from ..systolic import ArrayConfig
from ..systolic.diskcache import estimate_network_cached

#: Op classes whose cycles come from depthwise-style (single-channel)
#: compute: 2D depthwise columns on the baseline, 1D broadcast rows on
#: the FuSe variants.
_DW_CLASSES = ("depthwise", "fuse")


@dataclass(frozen=True)
class SparsityRow:
    """One (network, variant, sparsity, γ, array) point of the sweep."""

    network: str
    variant: Optional[str]      #: FuSe variant label; ``None`` = baseline
    sparsity: float             #: magnitude-prune target
    gamma: int                  #: column-combining group-size limit
    rows: int                   #: array geometry (rows == cols here)
    dense_cycles: int
    packed_cycles: int
    packed_columns: int
    columns_combined: int
    dw_dense_cycles: int        #: depthwise-class cycles, dense schedule
    dw_packed_cycles: int       #: depthwise-class cycles, packed schedule
    dw_channels: int            #: depthwise-class channels (rows/columns)
    dw_channels_dropped: int    #: fully-pruned channels removed outright

    @property
    def speedup(self) -> float:
        """Dense-over-packed cycles for the whole network."""
        return self.dense_cycles / self.packed_cycles

    @property
    def dw_drop_fraction(self) -> float:
        """Fraction of depthwise-class channels eliminated entirely."""
        if self.dw_channels == 0:
            return 0.0
        return self.dw_channels_dropped / self.dw_channels

    @property
    def dw_packed_ratio(self) -> float:
        """Packed/dense cycle ratio of the depthwise-class compute.

        Lower is better packing; FuSe rows should land below the 2D
        depthwise baseline at the same sparsity.
        """
        if self.dw_dense_cycles == 0:
            return 1.0
        return self.dw_packed_cycles / self.dw_dense_cycles

    @property
    def label(self) -> str:
        return (f"{self.network} {self.variant or 'baseline'} "
                f"s={self.sparsity:.0%} γ={self.gamma} "
                f"{self.rows}x{self.rows}")


def _dw_cycles(latency) -> int:
    by_class = latency.cycles_by_class()
    return sum(by_class.get(cls, 0) for cls in _DW_CLASSES)


def _dw_channels(network, packing) -> Tuple[int, int]:
    """(total, fully-dropped) depthwise-class channels under ``packing``."""
    total = dropped = 0
    for node in network:
        if op_class(node.layer) not in _DW_CLASSES:
            continue
        mapping = packing.get(node.name)
        if mapping is None:
            continue
        total += mapping.n_orig
        dropped += mapping.dropped
    return total, dropped


def network_packing(network, sparsity: float, gamma: int,
                    conflict: str = "prune", seed: int = 0):
    """The pass pipeline's :class:`~repro.ir.packing.NetworkPacking` for
    one IR network with deterministic seeded weights.

    Runs the sparse compile pipeline (fold BN → magnitude prune →
    column combine) on a :class:`GraphExecutor` built with ``seed`` and
    returns the resulting transform — its ``.packing`` drives
    :func:`repro.systolic.estimate_network` and the array executor.
    """
    from ..nn.compile import CompileConfig
    from ..nn.passes import Pipeline

    config = CompileConfig.sparse(sparsity=sparsity, gamma=gamma,
                                  conflict=conflict)
    executor = GraphExecutor(network, seed=seed)
    executor.eval()
    pipeline = Pipeline.from_config(config)
    return pipeline.run(executor, network, config)


def _variant_nets(name: str, variants, **model_kwargs):
    baseline = build_model(name, **model_kwargs)
    out = [(None, baseline)]
    for variant in variants:
        out.append((variant.label, to_fuseconv(baseline, variant)))
    return out


@profiled("analysis.sparsity_sweep")
def sparsity_sweep(
    networks: Sequence[str] = ("mobilenet_v3_small",),
    variants: Sequence[FuSeVariant] = (FuSeVariant.FULL,),
    sparsities: Sequence[float] = (0.5, 0.75, 0.9),
    gammas: Sequence[int] = (8,),
    sizes: Sequence[int] = (32, 64),
    conflict: str = "prune",
    seed: int = 0,
    cache_dir=None,
    **model_kwargs,
) -> List[SparsityRow]:
    """FuSe-variant × sparsity × array-size sweep of packed speedups.

    One packing per (network, variant, sparsity, γ) — weights come from
    the deterministic ``seed`` — estimated on a square broadcast array
    per entry of ``sizes``.  ``cache_dir`` memoizes estimates on disk
    (packing identity is part of the key, see
    :func:`repro.systolic.diskcache.cache_key`).
    """
    rows: List[SparsityRow] = []
    for name in networks:
        for label, net in _variant_nets(name, variants, **model_kwargs):
            for sparsity in sparsities:
                for gamma in gammas:
                    tf = network_packing(net, sparsity, gamma,
                                         conflict=conflict, seed=seed)
                    dw_total, dw_dropped = _dw_channels(net, tf.packing)
                    for size in sizes:
                        array = ArrayConfig(size, size, broadcast=True)
                        dense = estimate_network_cached(
                            net, array, cache_dir=cache_dir)
                        packed = estimate_network_cached(
                            net, array, cache_dir=cache_dir,
                            packing=tf.packing)
                        rows.append(SparsityRow(
                            network=name,
                            variant=label,
                            sparsity=sparsity,
                            gamma=gamma,
                            rows=size,
                            dense_cycles=dense.total_cycles,
                            packed_cycles=packed.total_cycles,
                            packed_columns=tf.packing.packed_columns,
                            columns_combined=tf.packing.columns_combined,
                            dw_dense_cycles=_dw_cycles(dense),
                            dw_packed_cycles=_dw_cycles(packed),
                            dw_channels=dw_total,
                            dw_channels_dropped=dw_dropped,
                        ))
    return rows


@dataclass(frozen=True)
class PackingAdvantage:
    """Baseline-vs-FuSe packing comparison at one matched sweep point.

    Captures both honest sides of the comparison (module docstring):
    FuSe eliminates far more channels outright and stays cheaper in
    absolute packed cycles, while the 2D baseline shows the better
    *relative* packed/dense ratio because its dense schedule had more
    waste to recover.
    """

    network: str
    variant: str
    sparsity: float
    gamma: int
    rows: int
    base_ratio: float           #: 2D depthwise packed/dense cycle ratio
    fuse_ratio: float           #: FuSe packed/dense cycle ratio
    base_drop_fraction: float   #: 2D channels eliminated entirely
    fuse_drop_fraction: float   #: FuSe rows eliminated entirely
    base_packed_cycles: int     #: absolute packed depthwise-class cycles
    fuse_packed_cycles: int

    @property
    def fuse_eliminates_more(self) -> bool:
        """FuSe drops more channels outright (independent rows vanish)."""
        return self.fuse_drop_fraction > self.base_drop_fraction

    @property
    def fuse_faster_absolute(self) -> bool:
        """Packed FuSe depthwise-class compute is cheaper in cycles."""
        return self.fuse_packed_cycles < self.base_packed_cycles


def packing_advantage(rows: Sequence[SparsityRow]) -> List[PackingAdvantage]:
    """Pair every FuSe row with its baseline at the same sweep point."""
    base = {
        (r.network, r.sparsity, r.gamma, r.rows): r
        for r in rows if r.variant is None
    }
    out: List[PackingAdvantage] = []
    for r in rows:
        if r.variant is None:
            continue
        b = base.get((r.network, r.sparsity, r.gamma, r.rows))
        if b is None:
            continue
        out.append(PackingAdvantage(
            network=r.network, variant=r.variant, sparsity=r.sparsity,
            gamma=r.gamma, rows=r.rows,
            base_ratio=b.dw_packed_ratio, fuse_ratio=r.dw_packed_ratio,
            base_drop_fraction=b.dw_drop_fraction,
            fuse_drop_fraction=r.dw_drop_fraction,
            base_packed_cycles=b.dw_packed_cycles,
            fuse_packed_cycles=r.dw_packed_cycles,
        ))
    return out

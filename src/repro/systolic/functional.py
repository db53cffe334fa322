"""Functional cycle-level systolic array simulator.

While :mod:`repro.systolic.gemm` and :mod:`repro.systolic.fuse_mapping`
*count* cycles analytically, this module actually executes the dataflows on
a simulated PE grid:

* :class:`SystolicArraySim` — output-stationary GEMM.  Operand A streams in
  from the left edge (row ``i`` delayed by ``i`` cycles), operand B from the
  top edge (column ``j`` delayed by ``j`` cycles); every PE multiplies its
  current inputs, accumulates locally, and forwards A rightward / B downward
  each cycle.  After the last partial sum, outputs drain down the columns.

* :meth:`SystolicArraySim.run_conv1d_broadcast` — the paper's modified
  dataflow (§IV-C): each row executes one independent 1D convolution, the
  row's weight enters through the broadcast link (all PEs of a row see the
  same weight in the same cycle), inputs stream along the row systolically,
  outputs stay stationary and then drain.

Every dataflow exists in two interchangeable **engines**:

* ``engine="reference"`` — the scalar stepper: one Python iteration per
  machine cycle, explicit register shifts and skewed edge injection.  This
  is the machine description, and the only engine that can drive the
  ``observer`` hook (per-cycle state snapshots for visualization).
* ``engine="vector"`` (default) — the wavefront formulation.  The skew
  terms ``i + j + t`` only shift *when* each MAC happens; they never change
  which product a PE sees nor the per-PE accumulation order (``t`` ascends
  at every PE).  So the whole fold collapses to one whole-array rank-1
  update per wavefront step, with the operand streams taken as
  stride-tricks views of A/B — no per-cycle Python loops over rows or
  columns.  The update order replays the reference machine exactly, making
  the two engines **bit-identical** (tested), while the cycle count comes
  from the same closed-form fold models the reference stepper asserts
  against.

:meth:`SystolicArraySim.run_gemm` also takes a *stack* of G same-shape
GEMMs — a depthwise layer is C independent single-column GEMMs (§III-B) —
and replays them in one wavefront, costing G × the per-GEMM cycles.

Both engines return the numerically-exact result *and* the measured cycle
count; the test suite asserts the values match numpy, the cycles match the
analytical model fold-for-fold, and the engines agree bit-for-bit on
randomized fold shapes (``tests/systolic/test_engines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..obs import get_registry, get_tracer
from ..ir.packing import PackedMapping
from .config import ArrayConfig
from .fuse_mapping import BroadcastFold
from .gemm import FoldShape

#: Valid values of the ``engine`` knob.
ENGINES = ("vector", "reference")

#: Elements in one block of wavefront products of the vector OS GEMM
#: (a single step is never split, so a step larger than this is a block).
_PRODUCT_BLOCK = 1 << 18


@dataclass
class SimResult:
    """Output values and measured cycles of a functional simulation."""

    values: np.ndarray
    cycles: int


#: Observer signature: called once per simulated cycle with the dataflow
#: phase ("gemm" / "broadcast"), the cycle index within the fold, and a
#: dict of state snapshots (copies — safe to keep).
Observer = "Callable[[str, int, dict], None]"


def _spans(extent: int, tile: int) -> list:
    """Contiguous ``(start, tiles, size)`` groups when tiling ``extent``.

    The full-size tiles form one group, the remainder (if any) another —
    the same ≤2 distinct shapes per axis that :func:`repro.systolic.gemm.
    _tile_counts` enumerates, but with their array offsets, so the vector
    engine can process every same-shaped fold in one batch of whole-array
    operations.
    """
    full, rem = divmod(extent, tile)
    out = []
    if full:
        out.append((0, full, tile))
    if rem:
        out.append((full * tile, 1, rem))
    return out


def _record_sim_op(op: str, folds: int, cycles: int, calls: int = 1) -> None:
    """Count ``calls`` simulated operations on the default metrics registry."""
    registry = get_registry()
    registry.counter(f"sim.{op}.calls").inc(calls)
    registry.counter(f"sim.{op}.folds").inc(folds)
    registry.counter(f"sim.{op}.cycles").inc(cycles)


class SystolicArraySim:
    """A functional ``rows × cols`` output-stationary systolic array.

    Args:
        array: the simulated grid.
        observer: per-cycle state callback (used by
            ``examples/visualize_dataflow.py`` to animate the dataflows).
            Observation needs the scalar stepper, so setting an observer
            forces ``engine="reference"`` regardless of the knob.
        engine: ``"vector"`` (default — vectorized wavefront, see module
            docstring) or ``"reference"`` (scalar per-cycle stepper).

    Every ``run_*`` call counts calls/folds/cycles on the default metrics
    registry (``sim.gemm.*``, ``sim.conv1d.*``, …) and shows up as a span
    when the :mod:`repro.obs` tracer is enabled.
    """

    def __init__(self, array: ArrayConfig, observer=None,
                 engine: str = "vector") -> None:
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        self.array = array
        self.observer = observer
        # The observer contract is "called once per simulated cycle" —
        # only the scalar stepper has per-cycle state to show.
        self.engine = "reference" if observer is not None else engine

    # ------------------------------------------------------------------ GEMM

    def run_gemm(self, a: np.ndarray, b: np.ndarray) -> SimResult:
        """Compute ``a @ b`` through the array, tiling into folds as needed.

        ``a`` of shape ``(G, M, K)`` and ``b`` of shape ``(G, K, N)`` run
        G independent same-shape GEMMs back to back: values are
        ``(G, M, N)``, cycles are G × the per-GEMM fold sum, and the
        ``sim.gemm.*`` counters count G calls — exactly as G separate
        2-D calls would.
        """
        if a.ndim != b.ndim or a.ndim not in (2, 3) \
                or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
            raise ValueError(f"GEMM shapes disagree: {a.shape} @ {b.shape}")
        stacked = a.ndim == 3
        if not stacked:
            a, b = a[np.newaxis], b[np.newaxis]
        g, m, k = a.shape
        n = b.shape[2]
        out = np.zeros((g, m, n), dtype=np.result_type(a, b))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.gemm", category="sim", g=g, m=m, k=k,
                               n=n, engine=self.engine) as sp:
            if self.engine == "vector":
                cycles, folds = self._run_gemm_vector(a, b, out)
            else:
                for gi in range(g):
                    for m0 in range(0, m, self.array.rows):
                        r = min(self.array.rows, m - m0)
                        for n0 in range(0, n, self.array.cols):
                            c = min(self.array.cols, n - n0)
                            tile, tile_cycles = self._run_gemm_fold_reference(
                                a[gi, m0:m0 + r], b[gi, :, n0:n0 + c]
                            )
                            out[gi, m0:m0 + r, n0:n0 + c] = tile
                            cycles += tile_cycles
                            folds += 1
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("gemm", folds, cycles, calls=g)
        return SimResult(values=out if stacked else out[0], cycles=cycles)

    def _run_gemm_vector(self, a: np.ndarray, b: np.ndarray,
                         out: np.ndarray) -> Tuple[int, int]:
        """Vectorized wavefront execution of a stack of OS GEMMs.

        PE ``(i, j)`` of a fold executes its step-``t`` MAC at cycle
        ``i + j + t``: the skew decides *when* products land, never which
        products nor their per-PE order (``t`` ascends everywhere), and
        the idle-edge zero injections of the reference machine add exactly
        ``+0.0``.  So the machine state of *every fold of the same shape*,
        across all G GEMMs of the stack, can be replayed together: one
        rank-1 wavefront update per step ``t`` — whole-array numpy
        operations only, bit-identical to the scalar stepper (tested).

        The products of a block of steps are formed by one broadcast
        multiply into a buffer of at most :data:`_PRODUCT_BLOCK` elements,
        then added in place one step at a time in ascending ``t`` — the
        per-PE accumulation order of the stepper.  (A pairwise reduction
        over ``t`` would reorder the adds and change the rounding.)

        ``a`` is ``(G, M, K)``, ``b`` is ``(G, K, N)``.  Returns
        ``(cycles, folds)``; fold outputs are scattered into the
        ``(G, M, N)`` ``out`` (each fold owns a disjoint tile, as in the
        reference).
        """
        g, m, k = a.shape
        n = b.shape[2]
        cycles = 0
        folds = 0
        for m0, rtiles, r in _spans(m, self.array.rows):
            # (k, g, rtiles, 1, r, 1) view of the row streams
            a_steps = a[:, m0:m0 + rtiles * r].reshape(g, rtiles, r, k) \
                .transpose(3, 0, 1, 2)[:, :, :, np.newaxis, :, np.newaxis]
            for n0, ctiles, c in _spans(n, self.array.cols):
                # (k, g, 1, ctiles, 1, c) view of the column streams
                b_steps = b[:, :, n0:n0 + ctiles * c].reshape(g, k, ctiles, c) \
                    .transpose(1, 0, 2, 3)[:, :, np.newaxis, :, np.newaxis, :]
                acc = np.zeros((g, rtiles, ctiles, r, c), dtype=out.dtype)
                block = max(1, min(k, _PRODUCT_BLOCK // max(acc.size, 1)))
                prod = np.empty((block,) + acc.shape, dtype=out.dtype)
                for t0 in range(0, k, block):
                    steps = np.multiply(a_steps[t0:t0 + block],
                                        b_steps[t0:t0 + block],
                                        out=prod[:min(block, k - t0)])
                    for step in steps:
                        acc += step
                out[:, m0:m0 + rtiles * r, n0:n0 + ctiles * c] = (
                    acc.transpose(0, 1, 3, 2, 4)
                    .reshape(g, rtiles * r, ctiles * c)
                )
                cycles += g * rtiles * ctiles * FoldShape(r=r, c=c, k=k).cycles
                folds += g * rtiles * ctiles
        return cycles, folds

    def _run_gemm_fold_reference(self, a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, int]:
        """Scalar stepper for one OS fold (one Python iteration per cycle)."""
        r, k = a.shape
        _, c = b.shape
        acc = np.zeros((r, c), dtype=np.result_type(a, b))
        # a_reg[i][j]: A value currently held by PE (i, j); likewise b_reg.
        a_reg = np.zeros((r, c), dtype=a.dtype)
        b_reg = np.zeros((r, c), dtype=b.dtype)

        # MAC phase: feed with skew until every PE has seen all k operands.
        # PE (i, j) performs its step-t MAC at cycle i + j + t.
        mac_cycles = (r - 1) + (c - 1) + k
        for t in range(mac_cycles):
            # Shift right/down *before* injecting this cycle's edge values.
            a_reg[:, 1:] = a_reg[:, :-1]
            b_reg[1:, :] = b_reg[:-1, :]
            for i in range(r):  # left edge: row i receives a[i, t - i]
                idx = t - i
                a_reg[i, 0] = a[i, idx] if 0 <= idx < k else 0
            for j in range(c):  # top edge: column j receives b[t - j, j]
                idx = t - j
                b_reg[0, j] = b[idx, j] if 0 <= idx < k else 0
            acc += a_reg * b_reg
            if self.observer is not None:
                self.observer(
                    "gemm", t, {"a": a_reg.copy(), "b": b_reg.copy(), "acc": acc.copy()}
                )

        # Drain phase: stationary outputs ripple down the column links, one
        # row per cycle (r cycles).
        drain_cycles = r
        total = mac_cycles + drain_cycles
        expected = FoldShape(r=r, c=c, k=k).cycles
        assert total == expected, f"fold cycle mismatch: {total} != {expected}"
        return acc, total

    # ------------------------------------------------------- packed GEMM

    def run_packed_gemm(self, a: np.ndarray, b: np.ndarray,
                        mapping: PackedMapping) -> SimResult:
        """``a @ b`` on column-combined physical columns (Kung packing).

        Each physical column holds the merged weights of its member
        columns — legal because the members' nonzero row supports are
        disjoint (validated here against the actual ``b``), so every PE
        row slot is owned by at most one member and its product routes to
        that member's accumulator.  Streaming the full K input rows
        therefore computes *all* member outputs in the time of one dense
        column, and the fold schedule tiles ``n_packed`` physical columns
        instead of ``n_orig`` sparse ones.

        Values are produced by the same per-column ``t``-ascending
        wavefront accumulation as :meth:`run_gemm`, so packed output is
        **bit-identical** to the dense run on the same pruned ``b``
        (a member accumulator that receives no product at step ``t``
        matches the dense ``+0.0`` except for the sign of an exactly-zero
        sum, which compares equal).  γ=1 identity mappings reproduce the
        dense schedule cycle-for-cycle.

        Raises ``ValueError`` when ``mapping`` is inconsistent with
        ``b`` — oversized groups, overlapping supports, a live column
        left out, or a dropped column that still has weight.
        """
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"GEMM shapes disagree: {a.shape} @ {b.shape}")
        if mapping.kind != "gemm":
            raise ValueError(f"need a gemm mapping, got {mapping.kind!r}")
        if mapping.k != k or mapping.n_orig != n:
            raise ValueError(
                f"mapping is for a {mapping.k}x{mapping.n_orig} weight "
                f"matrix, got {b.shape}")
        nz = b != 0
        seen = np.zeros(n, dtype=bool)
        for group in mapping.groups:
            if len(group) > mapping.gamma:
                raise ValueError(
                    f"group {group} exceeds gamma={mapping.gamma}")
            for j in group:
                if seen[j]:
                    raise ValueError(f"column {j} appears in two groups")
                seen[j] = True
            if len(group) > 1 and int(nz[:, list(group)].sum(axis=1).max()) > 1:
                raise ValueError(
                    f"group {group} has conflicting nonzero rows — "
                    "weights do not match the packed mapping")
        if nz[:, ~seen].any():
            raise ValueError(
                "dropped columns still hold nonzero weights — "
                "weights do not match the packed mapping")

        out = np.zeros((m, n), dtype=np.result_type(a, b))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.packed_gemm", category="sim", m=m, k=k,
                               n=n, n_packed=mapping.n_packed,
                               engine=self.engine) as sp:
            # Values via the dense wavefront accumulation (bit-identical
            # across engines and to run_gemm); cycles from the packed
            # physical-column tiling.
            self._run_gemm_vector(a[np.newaxis], b[np.newaxis],
                                  out[np.newaxis])
            for _, rtiles, r in _spans(m, self.array.rows):
                for _, ctiles, c in _spans(mapping.n_packed, self.array.cols):
                    cycles += rtiles * ctiles * FoldShape(r=r, c=c, k=k).cycles
                    folds += rtiles * ctiles
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("packed_gemm", folds, cycles)
        return SimResult(values=out, cycles=cycles)

    # ------------------------------------------------------------- WS GEMM

    def run_ws_gemm(self, a: np.ndarray, b: np.ndarray) -> SimResult:
        """Compute ``a @ b`` under the weight-stationary dataflow.

        A ``K×N`` tile of B rests in the array (K along rows, N along
        columns; ``r`` preload cycles); the M rows of A stream through with
        per-row skew while partial sums cascade down the columns.  K-tiles
        accumulate in an output buffer outside the array (as the analytical
        model in :mod:`repro.systolic.dataflows` assumes).
        """
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"GEMM shapes disagree: {a.shape} @ {b.shape}")
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.ws_gemm", category="sim", m=m, k=k, n=n,
                               engine=self.engine) as sp:
            for k0 in range(0, k, self.array.rows):
                r = min(self.array.rows, k - k0)
                for n0 in range(0, n, self.array.cols):
                    c = min(self.array.cols, n - n0)
                    tile, tile_cycles = self._run_ws_fold(
                        a[:, k0:k0 + r], b[k0:k0 + r, n0:n0 + c]
                    )
                    out[:, n0:n0 + c] += tile
                    cycles += tile_cycles
                    folds += 1
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("ws_gemm", folds, cycles)
        return SimResult(values=out, cycles=cycles)

    def _run_ws_fold(self, a: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, int]:
        """One WS fold: ``a`` is ``M×r``, stationary ``w`` is ``r×c``."""
        if self.engine == "vector":
            return self._run_ws_fold_vector(a, w)
        return self._run_ws_fold_reference(a, w)

    def _run_ws_fold_vector(self, a: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, int]:
        """Wavefront formulation of one WS fold.

        The partial sum of stream vector ``v`` cascades *down* its column:
        it picks up the row-``i`` product in ``i``-ascending order at every
        column, whatever the skew.  Rank-1 updates over the ``r`` resident
        rows replay that order exactly.
        """
        m, r = a.shape
        _, c = w.shape
        out = np.zeros((m, c), dtype=np.result_type(a, w))
        for i in range(r):
            out += a[:, i, np.newaxis] * w[np.newaxis, i, :]
        preload = r
        total = preload + (r - 1) + (c - 1) + m + 1
        return out, total

    def _run_ws_fold_reference(self, a: np.ndarray, w: np.ndarray) -> Tuple[np.ndarray, int]:
        """Scalar stepper for one WS fold."""
        m, r = a.shape
        _, c = w.shape
        out = np.zeros((m, c), dtype=np.result_type(a, w))
        # a_reg[i][j]: streaming operand at PE (i, j); psum[i][j]: the
        # partial sum PE (i, j) just produced (flows down next cycle).
        a_reg = np.zeros((r, c), dtype=a.dtype)
        psum = np.zeros((r, c), dtype=out.dtype)

        preload = r  # weights march down their columns, one row per cycle
        # Vector v's element i enters row i at cycle v + i; after j right
        # hops PE (i, j) uses it at cycle v + i + j, adding to the psum that
        # left PE (i-1, j) the cycle before.  The column output for vector v
        # exits the bottom at cycle v + (r - 1) + j + 1.
        stream_cycles = (m - 1) + (r - 1) + (c - 1) + 1 + 1
        for t in range(stream_cycles):
            # Shift streams right and psums down (before injection).
            a_reg[:, 1:] = a_reg[:, :-1]
            new_top = np.zeros(c, dtype=out.dtype)
            emitted = psum[r - 1, :].copy()
            psum[1:, :] = psum[:-1, :]
            psum[0, :] = new_top
            for i in range(r):
                v = t - i
                a_reg[i, 0] = a[v, i] if 0 <= v < m else 0
            # Each PE adds its product into the psum passing through.
            psum += a_reg * w
            # The value emitted from the bottom of column j at cycle t
            # belongs to vector v = t - (r - 1) - j - 1.
            for j in range(c):
                v = t - (r - 1) - j - 1
                if 0 <= v < m:
                    out[v, j] = emitted[j]
        total = preload + (r - 1) + (c - 1) + m + 1
        assert total == preload + stream_cycles
        return out, total

    # ------------------------------------------------------------- IS GEMM

    def run_is_gemm(self, a: np.ndarray, b: np.ndarray) -> SimResult:
        """Compute ``a @ b`` under the input-stationary dataflow.

        An ``M×K`` tile of A rests in the array (M along rows, K along
        columns; ``r`` preload cycles); the N columns of B stream down the
        columns with per-column skew while partial sums cascade rightward
        along the rows.  K-tiles accumulate in an output buffer outside
        the array, mirroring :meth:`run_ws_gemm`.
        """
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError(f"GEMM shapes disagree: {a.shape} @ {b.shape}")
        out = np.zeros((m, n), dtype=np.result_type(a, b))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.is_gemm", category="sim", m=m, k=k, n=n,
                               engine=self.engine) as sp:
            for m0 in range(0, m, self.array.rows):
                r = min(self.array.rows, m - m0)
                for k0 in range(0, k, self.array.cols):
                    c = min(self.array.cols, k - k0)
                    tile, tile_cycles = self._run_is_fold(
                        a[m0:m0 + r, k0:k0 + c], b[k0:k0 + c, :]
                    )
                    out[m0:m0 + r, :] += tile
                    cycles += tile_cycles
                    folds += 1
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("is_gemm", folds, cycles)
        return SimResult(values=out, cycles=cycles)

    def _run_is_fold(self, a_tile: np.ndarray, b_tile: np.ndarray) -> Tuple[np.ndarray, int]:
        if self.engine == "vector":
            return self._run_is_fold_vector(a_tile, b_tile)
        return self._run_is_fold_reference(a_tile, b_tile)

    def _run_is_fold_vector(self, a_tile: np.ndarray, b_tile: np.ndarray) -> Tuple[np.ndarray, int]:
        """Wavefront formulation of one IS fold.

        Partial sums cascade *rightward*: every output picks up its
        column-``j`` product in ``j``-ascending order, so rank-1 updates
        over the ``c`` resident columns replay the stepper exactly.
        """
        r, c = a_tile.shape
        _, n = b_tile.shape
        out = np.zeros((r, n), dtype=np.result_type(a_tile, b_tile))
        for j in range(c):
            out += a_tile[:, j, np.newaxis] * b_tile[j, np.newaxis, :]
        preload = r
        total = preload + (r - 1) + (c - 1) + n + 1
        return out, total

    def _run_is_fold_reference(self, a_tile: np.ndarray, b_tile: np.ndarray) -> Tuple[np.ndarray, int]:
        """One IS fold: stationary ``a_tile`` is ``r×c``, stream ``b_tile``
        is ``c×N``.

        Column vector n's element j enters column j's top at cycle
        ``n + j`` and reaches row i after ``i`` down-hops; the partial sum
        for (row i, vector n) moves one column right per cycle and exits
        the right edge at cycle ``n + (c-1) + i + 1``.
        """
        r, c = a_tile.shape
        _, n = b_tile.shape
        out = np.zeros((r, n), dtype=np.result_type(a_tile, b_tile))
        b_reg = np.zeros((r, c), dtype=b_tile.dtype)
        psum = np.zeros((r, c), dtype=out.dtype)

        preload = r  # stationary inputs march down their columns
        stream_cycles = (n - 1) + (r - 1) + (c - 1) + 1 + 1
        for t in range(stream_cycles):
            emitted = psum[:, c - 1].copy()
            psum[:, 1:] = psum[:, :-1]
            psum[:, 0] = 0
            b_reg[1:, :] = b_reg[:-1, :]
            for j in range(c):
                v = t - j
                b_reg[0, j] = b_tile[j, v] if 0 <= v < n else 0
            psum += a_tile * b_reg
            for i in range(r):
                v = t - (c - 1) - i - 1
                if 0 <= v < n:
                    out[i, v] = emitted[i]
        total = preload + (r - 1) + (c - 1) + n + 1
        assert total == preload + stream_cycles
        return out, total

    # ------------------------------------------------- broadcast 1D convs

    def run_conv1d_broadcast(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        stride: int = 1,
    ) -> SimResult:
        """Run a bank of independent 1D convolutions with row broadcast.

        Args:
            inputs: ``(G, L_in)`` — one input line per convolution.
            weights: ``(G, K)`` — one 1D filter per convolution.
            stride: stride along the convolution axis (no padding; callers
                pre-pad, as the mapper slices padded feature maps).

        Returns:
            ``(G, L_out)`` outputs with ``L_out = (L_in - K) // stride + 1``.
        """
        if not self.array.broadcast:
            raise ValueError("this array has no broadcast links (§IV-C hardware)")
        g, l_in = inputs.shape
        g2, k = weights.shape
        if g != g2:
            raise ValueError(f"got {g} input lines but {g2} filters")
        l_out = (l_in - k) // stride + 1
        if l_out <= 0:
            raise ValueError(f"1D conv output collapsed: L_in={l_in}, K={k}")

        out = np.zeros((g, l_out), dtype=np.result_type(inputs, weights))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.conv1d", category="sim",
                               convs=g, k=k, stride=stride,
                               engine=self.engine) as sp:
            if self.engine == "vector":
                cycles, folds = self._run_conv1d_vector(
                    inputs, weights, stride, out
                )
            else:
                for g0 in range(0, g, self.array.rows):
                    r = min(self.array.rows, g - g0)
                    for l0 in range(0, l_out, self.array.cols):
                        c = min(self.array.cols, l_out - l0)
                        tile, tile_cycles = self._run_broadcast_fold_reference(
                            inputs[g0:g0 + r], weights[g0:g0 + r],
                            stride, l0, c
                        )
                        out[g0:g0 + r, l0:l0 + c] = tile
                        cycles += tile_cycles
                        folds += 1
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("conv1d", folds, cycles)
        return SimResult(values=out, cycles=cycles)

    def _run_conv1d_vector(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        stride: int,
        out: np.ndarray,
    ) -> Tuple[int, int]:
        """Vectorized wavefront execution of a whole conv1d bank.

        The input stream of PE ``(i, j)`` of a fold is the stride-tricks
        tap view ``taps[i, j, t] = inputs[i, (l0 + j)·stride + t]`` — the
        column-``j`` skew only delays when tap ``t`` arrives, never which
        value it is, and the broadcast link hands every PE of row ``i``
        weight ``w[i, t]`` at step ``t``.  One rank-1 update per broadcast
        step, batched over all same-shaped folds, replays the per-PE
        ``t``-ascending accumulation of the stepper exactly.
        """
        g, _ = inputs.shape
        _, k = weights.shape
        _, l_out = out.shape
        cycles = 0
        folds = 0
        s0, s1 = inputs.strides
        for g0, gtiles, r in _spans(g, self.array.rows):
            w_grp = weights[g0:g0 + gtiles * r].reshape(gtiles, r, k)
            w_steps = w_grp.transpose(2, 0, 1)  # (k, gtiles, r) view
            for l0, ctiles, c in _spans(l_out, self.array.cols):
                # taps[gt, i, ct, j, t] = inputs[g0 + gt*r + i,
                #                                (l0 + ct*c + j)*stride + t]
                window = inputs[g0:, l0 * stride:]
                taps = np.lib.stride_tricks.as_strided(
                    window,
                    shape=(gtiles, r, ctiles, c, k),
                    strides=(r * s0, s0, c * stride * s1, stride * s1, s1),
                    writeable=False,
                )
                tap_steps = taps.transpose(4, 0, 1, 2, 3)
                acc = np.zeros((gtiles, r, ctiles, c),
                               dtype=np.result_type(inputs, weights))
                for t in range(k):
                    acc += (w_steps[t][:, :, np.newaxis, np.newaxis]
                            * tap_steps[t])
                out[g0:g0 + gtiles * r, l0:l0 + ctiles * c] = (
                    acc.reshape(gtiles * r, ctiles * c)
                )
                fold_cycles = BroadcastFold(r=r, c=c, k=k, stride=stride).cycles
                cycles += gtiles * ctiles * fold_cycles
                folds += gtiles * ctiles
        return cycles, folds

    def run_conv1d_packed(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        stride: int,
        taps,
    ) -> SimResult:
        """A broadcast conv1d bank streaming only the live ``taps``.

        The packed FuSe schedule groups channels with identical tap
        support (see :func:`repro.ir.packing.pack_fuse1d`): a fold may
        skip a weight cycle only when *every* resident row's tap is zero
        there, which holds by construction within a group.  The broadcast
        link then delivers ``len(taps)`` weights instead of ``K``, and
        each PE's input window gathers the matching tap offsets.

        ``inputs`` are the full ``(G, L_in)`` lines and ``weights`` the
        full ``(G, K)`` filters — weights outside ``taps`` must be zero
        (validated), and the output length is still derived from the full
        ``K`` window.  Per-PE accumulation visits live taps in ascending
        order, so values equal the dense bank's on the same pruned
        filters (the dense run's skipped terms are exact ``+0.0`` adds).
        """
        if not self.array.broadcast:
            raise ValueError(
                "this array has no broadcast links (§IV-C hardware)")
        g, l_in = inputs.shape
        g2, k = weights.shape
        if g != g2:
            raise ValueError(f"got {g} input lines but {g2} filters")
        taps = tuple(int(t) for t in taps)
        if not taps:
            raise ValueError("taps must name at least one live weight")
        if list(taps) != sorted(set(taps)) or taps[0] < 0 or taps[-1] >= k:
            raise ValueError(
                f"taps must be strictly increasing within [0, {k}), "
                f"got {taps}")
        dead = np.delete(weights, taps, axis=1)
        if dead.size and np.any(dead):
            raise ValueError(
                "filters hold nonzero weights outside the live taps — "
                "weights do not match the packed mapping")
        l_out = (l_in - k) // stride + 1
        if l_out <= 0:
            raise ValueError(f"1D conv output collapsed: L_in={l_in}, K={k}")
        kt = len(taps)
        w_live = np.ascontiguousarray(weights[:, list(taps)])
        # gathered[i, j, t] = inputs[i, j*stride + taps[t]]
        gather_idx = (np.arange(l_out) * stride)[:, np.newaxis] \
            + np.asarray(taps)[np.newaxis, :]
        gathered = inputs[:, gather_idx]  # (G, L_out, kt)
        out = np.zeros((g, l_out), dtype=np.result_type(inputs, weights))
        cycles = 0
        folds = 0
        with get_tracer().span("sim.conv1d_packed", category="sim",
                               convs=g, k=k, live_taps=kt, stride=stride,
                               engine=self.engine) as sp:
            for t in range(kt):
                out += w_live[:, t, np.newaxis] * gathered[:, :, t]
            for _, gtiles, r in _spans(g, self.array.rows):
                for _, ctiles, c in _spans(l_out, self.array.cols):
                    fold_cycles = BroadcastFold(
                        r=r, c=c, k=kt, stride=stride).cycles
                    cycles += gtiles * ctiles * fold_cycles
                    folds += gtiles * ctiles
            sp.set(folds=folds, cycles=cycles)
        _record_sim_op("conv1d_packed", folds, cycles)
        return SimResult(values=out, cycles=cycles)

    def _run_broadcast_fold_reference(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        stride: int,
        out_offset: int,
        c: int,
    ) -> Tuple[np.ndarray, int]:
        """One broadcast fold: ``r`` rows × ``c`` output columns.

        PE (i, j) computes ``sum_t w[i, t] * x[i, (out_offset + j)*s + t]``.
        The input stream of row ``i`` reaches column ``j`` with ``j`` cycles
        of skew; the broadcast link delivers ``w[i, t]`` to the whole row at
        once, so PE (i, j) executes its step-t MAC at cycle ``j + t`` —
        there is no skew along the rows of the array (this is exactly the
        saving over the pure systolic dataflow).
        """
        r, k = weights.shape
        acc = np.zeros((r, c), dtype=np.result_type(inputs, weights))
        mac_cycles = (c - 1) + k
        for cycle in range(mac_cycles):
            active = np.zeros((r, c), dtype=bool)
            for j in range(c):
                t = cycle - j  # local time of column j behind the skew
                if 0 <= t < k:
                    base = (out_offset + j) * stride
                    acc[:, j] += weights[:, t] * inputs[:, base + t]
                    active[:, j] = True
            if self.observer is not None:
                self.observer(
                    "broadcast", cycle, {"acc": acc.copy(), "active": active}
                )
        drain_cycles = r
        total = mac_cycles + drain_cycles
        expected = BroadcastFold(r=r, c=c, k=k, stride=stride).cycles
        assert total == expected, f"broadcast fold mismatch: {total} != {expected}"
        return acc, total


def simulate_gemm(
    a: np.ndarray, b: np.ndarray, array: ArrayConfig, engine: str = "vector"
) -> SimResult:
    """Convenience wrapper: output-stationary GEMM through a fresh simulator."""
    return SystolicArraySim(array, engine=engine).run_gemm(a, b)


def simulate_conv1d_bank(
    inputs: np.ndarray,
    weights: np.ndarray,
    array: ArrayConfig,
    stride: int = 1,
    engine: str = "vector",
) -> SimResult:
    """Convenience wrapper: broadcast-dataflow 1D convolution bank."""
    return SystolicArraySim(array, engine=engine).run_conv1d_broadcast(
        inputs, weights, stride
    )

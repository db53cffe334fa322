"""Run an entire network through the functional PE-grid simulator.

This is the reproduction's strongest internal consistency check: the same
IR graph is executed twice —

* numerically, by :class:`repro.nn.graph.GraphExecutor` (vectorized numpy);
* on the simulated machine, by :class:`ArrayNetworkExecutor` below, which
  lowers each compute layer to array operations and pushes *real values*
  through :class:`repro.systolic.functional.SystolicArraySim`, using the
  exact weights of the GraphExecutor —

and the claims under test are (1) the array produces the same numbers and
(2) the cycles it takes equal :func:`repro.systolic.latency.estimate_layer`
for every layer.  Intended for small networks (the functional simulator is
a Python-loop machine); the test suite runs it on MobileNet-style blocks.

Host-side layers (BatchNorm, activations, pooling, plumbing) execute on
the "CPU" exactly as the latency model assumes (they contribute no array
cycles, §V-A.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.reference import im2col, pad_input
from ..ir import layer as ir
from ..ir.network import Network
from ..ir.packing import NetworkPacking
from ..nn.graph import GraphExecutor
from ..nn.tensor import Tensor
from ..obs import get_logger, get_registry, get_tracer
from .config import ArrayConfig
from .functional import SystolicArraySim
from .latency import estimate_layer
from .parallel import resolve_jobs, scatter

_log = get_logger("systolic.executor")


def _tile_chunks(extent: int, tile: int, parts: int) -> List[tuple]:
    """Split ``extent`` into ≤ ``parts`` contiguous ``(start, stop)`` chunks
    whose boundaries fall on multiples of ``tile``.

    Fold shapes are decided by how an axis divides into ``tile``-sized
    spans, so cutting only at tile boundaries guarantees a chunked run
    produces the exact same folds (values *and* cycles) as the unchunked
    one — the remainder span stays intact inside the last chunk.
    """
    ntiles = -(-extent // tile)
    parts = max(1, min(parts, ntiles))
    bounds = [round(i * ntiles / parts) for i in range(parts + 1)]
    return [
        (bounds[i] * tile, min(bounds[i + 1] * tile, extent))
        for i in range(parts)
        if bounds[i] < bounds[i + 1]
    ]


def _gemm_chunk_worker(task):
    """Run one row-chunk of a GEMM in a worker process."""
    array, engine, a, b = task
    run = SystolicArraySim(array, engine=engine).run_gemm(a, b)
    return run.values, run.cycles


def _conv1d_chunk_worker(task):
    """Run one line-chunk of a broadcast conv1d bank in a worker process."""
    array, engine, lines, weights, stride = task
    run = SystolicArraySim(array, engine=engine).run_conv1d_broadcast(
        lines, weights, stride
    )
    return run.values, run.cycles


@dataclass
class LayerRun:
    """Per-layer record of an array execution."""

    name: str
    kind: str
    cycles: int
    expected_cycles: int
    utilization: float = 0.0

    @property
    def consistent(self) -> bool:
        return self.cycles == self.expected_cycles


@dataclass
class ArrayRunResult:
    """Output of a full-network array execution."""

    values: np.ndarray
    cycles: int
    layers: List[LayerRun] = field(default_factory=list)

    @property
    def all_cycles_consistent(self) -> bool:
        return all(layer.consistent for layer in self.layers)


class ArrayNetworkExecutor:
    """Execute an IR network on the functional systolic array.

    Args:
        network: the IR graph.
        model: a :class:`GraphExecutor` holding the weights (built with
            ``seed`` if omitted).  The model is switched to eval mode —
            BatchNorm uses running statistics, as at inference.
        array: the simulated array (defaults to a small 16×16 — functional
            simulation is slow on big grids).
        engine: simulator engine (``"vector"`` default / ``"reference"``),
            forwarded to :class:`SystolicArraySim`.
        jobs: fan large GEMMs (row chunks) and FuSe line banks (line
            chunks) across this many worker processes via
            :mod:`repro.systolic.parallel`.  ``None`` → ``$REPRO_JOBS`` or
            1; ``0`` → all cores.  Chunk boundaries are always multiples
            of ``array.rows``, so fold shapes — and therefore values and
            cycle counts — are identical to the single-process run.
            Depthwise layers never fan out: all their channels run as one
            stacked GEMM call, too short to pay for a worker round trip.
        packing: a :class:`~repro.ir.packing.NetworkPacking` from the
            sparse compile pipeline.  Covered layers execute their
            column-combined schedule (packed GEMM columns, per-channel
            live-tap depthwise, tap-grouped FuSe banks); the model's
            weights must already be pruned to match (see
            :func:`repro.nn.passes.apply_pruning`) — mismatches raise.
            Packed layers always run single-process.
    """

    def __init__(
        self,
        network: Network,
        model: Optional[GraphExecutor] = None,
        array: Optional[ArrayConfig] = None,
        seed: int = 0,
        engine: str = "vector",
        jobs: Optional[int] = None,
        packing: Optional[NetworkPacking] = None,
    ) -> None:
        self.network = network
        self.model = model or GraphExecutor(network, seed=seed)
        self.model.eval()
        self.array = array or ArrayConfig.square(16)
        self.engine = engine
        self.jobs = resolve_jobs(jobs)
        self.packing = packing
        self.sim = SystolicArraySim(self.array, engine=engine)

    # ------------------------------------------------------------------ run

    def run(self, x: np.ndarray) -> ArrayRunResult:
        """Execute one ``(C, H, W)`` input through the simulated array."""
        if x.ndim != 3:
            raise ValueError(f"expected a (C, H, W) input, got shape {x.shape}")
        outputs: Dict[str, np.ndarray] = {}
        result = ArrayRunResult(values=x, cycles=0)
        current = x
        registry = get_registry()
        tracer = get_tracer()
        active_macs = 0
        occupied = 0
        with tracer.span("executor.network", category="executor",
                         network=self.network.name) as net_span:
            for node in self.network:
                inputs = [outputs[name] for name in node.inputs] or [x]
                packed = None if self.packing is None \
                    else self.packing.get(node.name)
                with tracer.span("executor.layer", category="executor",
                                 layer=node.name, kind=node.kind) as sp:
                    current, cycles = self._run_node(node, inputs, packed)
                    sp.set(cycles=cycles)
                outputs[node.name] = current
                if cycles:
                    expected = estimate_layer(node, self.array,
                                              packed=packed)
                    run = LayerRun(
                        name=node.name,
                        kind=node.kind,
                        cycles=cycles,
                        expected_cycles=expected.cycles,
                        utilization=expected.utilization,
                    )
                    result.layers.append(run)
                    result.cycles += cycles
                    active_macs += expected.stats.active_mac_cycles
                    occupied += cycles * self.array.num_pes
                    registry.counter(
                        "executor.layer.cycles",
                        network=self.network.name, layer=node.name,
                    ).inc(cycles)
                    if not run.consistent:
                        registry.counter("executor.cycle_mismatch").inc()
                        _log.warning(
                            "measured cycles diverge from the analytical model",
                            layer=node.name, measured=cycles,
                            expected=expected.cycles,
                        )
            net_span.set(cycles=result.cycles)
        registry.counter("executor.runs", network=self.network.name).inc()
        registry.gauge("executor.network.cycles", network=self.network.name).set(
            result.cycles
        )
        registry.gauge("executor.pe_utilization", network=self.network.name).set(
            active_macs / occupied if occupied else 0.0
        )
        result.values = current
        return result

    # ---------------------------------------------------------- array layers

    def _run_node(self, node, inputs, packed=None):
        spec = node.layer
        x = inputs[0]
        if isinstance(spec, ir.Conv2D):
            out, cycles = self._conv(node, x, packed)
        elif isinstance(spec, ir.DepthwiseConv2D):
            out, cycles = self._depthwise(node, x, packed)
        elif isinstance(spec, ir.PointwiseConv2D):
            out, cycles = self._pointwise(node, x, packed)
        elif isinstance(spec, ir.FuSeConv1D):
            out, cycles = self._fuse(node, x, packed)
        elif isinstance(spec, ir.Linear):
            out, cycles = self._linear(node, x, packed)
        elif isinstance(spec, ir.SqueezeExcite):
            return self._squeeze_excite(node, x)
        else:
            return self._host(node, inputs), 0
        # The array computes the products; the per-output-channel bias is
        # a host-side add, as in GraphExecutor.
        bias = self.model.module_for(node.name).bias
        if bias is not None:
            out = out + bias.data.reshape((-1,) + (1,) * (out.ndim - 1))
        return out, cycles

    def _weights(self, name: str) -> np.ndarray:
        return self.model.module_for(name).weight.data.astype(np.float64)

    def _gemm(self, a: np.ndarray, b: np.ndarray):
        """``a @ b`` (one GEMM or a ``(G, M, K)`` stack) through the
        array, row-chunked across workers.

        Chunks split the M axis at multiples of ``array.rows`` only
        (see :func:`_tile_chunks`), so values and cycles match the
        unchunked run exactly.
        """
        m = a.shape[-2]
        if self.jobs > 1 and m > self.array.rows:
            chunks = _tile_chunks(m, self.array.rows, self.jobs)
            if len(chunks) > 1:
                tasks = [
                    (self.array, self.engine, a[..., s:e, :], b)
                    for s, e in chunks
                ]
                parts = scatter(_gemm_chunk_worker, tasks, jobs=self.jobs)
                values = np.concatenate([v for v, _ in parts], axis=-2)
                return values, sum(cyc for _, cyc in parts)
        run = self.sim.run_gemm(a, b)
        return run.values, run.cycles

    def _conv1d_bank(self, lines: np.ndarray, weights: np.ndarray, stride: int):
        """A broadcast conv1d bank, line-chunked across workers."""
        g = lines.shape[0]
        if self.jobs > 1 and g > self.array.rows:
            chunks = _tile_chunks(g, self.array.rows, self.jobs)
            if len(chunks) > 1:
                tasks = [
                    (self.array, self.engine, lines[s:e], weights[s:e], stride)
                    for s, e in chunks
                ]
                parts = scatter(_conv1d_chunk_worker, tasks, jobs=self.jobs)
                values = np.concatenate([v for v, _ in parts], axis=0)
                return values, sum(cyc for _, cyc in parts)
        run = self.sim.run_conv1d_broadcast(lines, weights, stride)
        return run.values, run.cycles

    def _conv(self, node, x, packed=None):
        spec = node.layer
        w = self._weights(node.name)
        c_out, oh, ow = node.out_shape
        g = spec.groups
        if packed is not None and g != 1:
            raise ValueError(f"packed mapping on grouped conv {node.name!r}")
        cols = im2col(x.astype(np.float64), spec.kernel_hw, spec.stride_hw,
                      spec.padding)
        if packed is not None:
            run = self.sim.run_packed_gemm(
                cols, w.reshape(c_out, -1).T, packed)
            return run.values.T.reshape(c_out, oh, ow), run.cycles
        # Group gi multiplies its own input channels' window columns by its
        # own filters; the groups share one shape, so they run as a stack.
        a = cols.reshape(oh * ow, g, -1).transpose(1, 0, 2)
        b = w.reshape(g, c_out // g, -1).transpose(0, 2, 1)
        values, cycles = self._gemm(a, b)
        return values.transpose(0, 2, 1).reshape(c_out, oh, ow), cycles

    def _depthwise(self, node, x, packed=None):
        spec = node.layer
        c, oh, ow = node.out_shape
        w = self._weights(node.name).reshape(c, -1)  # (C, kh·kw)
        # Channel ch is the single-column GEMM of its own window columns
        # (§III-B): (oh·ow, C, kh·kw) → a (C, oh·ow, kh·kw) stack.
        cols = im2col(x.astype(np.float64), spec.kernel_hw, spec.stride_hw,
                      spec.padding).reshape(oh * ow, c, -1).transpose(1, 0, 2)
        if packed is None:
            run = self.sim.run_gemm(cols, w[:, :, np.newaxis])
            return run.values.reshape(c, oh, ow), run.cycles
        # Per-channel live-tap schedule: each channel streams only the
        # rows of its single-column GEMM whose weights survived the prune
        # (γ=1 keeps the full window, zeros and all); channels with the
        # same live-tap count run as one stack, and all-zero channels
        # produce zeros with no array cycles.
        k_eff = np.asarray(packed.k_eff)
        live = w != 0
        bad = (k_eff != packed.k) & (live.sum(axis=1) != k_eff)
        if bad.any():
            ch = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"depthwise packing of {node.name!r} expects "
                f"{k_eff[ch]} live taps on channel {ch}, weights have "
                f"{int(live[ch].sum())} — run apply_pruning with the "
                f"matching transform first")
        out = np.zeros((c, oh * ow))
        cycles = 0
        for ke in np.unique(k_eff[k_eff > 0]):
            chans = np.flatnonzero(k_eff == ke)
            # Each channel's live tap indices, ascending; a full-K channel
            # streams every tap.
            taps = np.nonzero(live[chans] | (ke == packed.k))[1] \
                .reshape(len(chans), ke)
            run = self.sim.run_gemm(
                np.take_along_axis(cols[chans], taps[:, np.newaxis], axis=2),
                np.take_along_axis(w[chans], taps, axis=1)[:, :, np.newaxis],
            )
            out[chans] = run.values.reshape(len(chans), -1)
            cycles += run.cycles
        return out.reshape(c, oh, ow), cycles

    def _pointwise(self, node, x, packed=None):
        w = self._weights(node.name)  # (C_out, C_in, 1, 1)
        c_in, h, width = x.shape
        a = x.reshape(c_in, h * width).T.astype(np.float64)
        b = w.reshape(w.shape[0], c_in).T
        if packed is not None:
            run = self.sim.run_packed_gemm(a, b, packed)
            return run.values.T.reshape(w.shape[0], h, width), run.cycles
        values, cycles = self._gemm(a, b)
        return values.T.reshape(w.shape[0], h, width), cycles

    def _fuse(self, node, x, packed=None):
        spec = node.layer
        w = self._weights(node.name)  # (C, K)
        c, oh, ow = node.out_shape
        sh, sw = spec.stride_hw
        xp = pad_input(x.astype(np.float64), spec.kernel_hw, spec.stride_hw, spec.padding)
        if packed is not None:
            return self._fuse_packed(node, spec, w, xp, packed)
        if spec.axis == "row":
            # Lines: every (channel, selected row); conv along the width.
            lines = xp[:, ::sh, :].reshape(c * oh, xp.shape[2])
            weights = np.repeat(w, oh, axis=0)
            values, cycles = self._conv1d_bank(lines, weights, stride=sw)
            out = values.reshape(c, oh, ow)
        else:
            lines = xp[:, :, ::sw].transpose(0, 2, 1).reshape(c * ow, xp.shape[1])
            weights = np.repeat(w, ow, axis=0)
            values, cycles = self._conv1d_bank(lines, weights, stride=sh)
            out = values.reshape(c, ow, oh).transpose(0, 2, 1)
        return out, cycles

    def _fuse_packed(self, node, spec, w, xp, packed):
        """Tap-grouped FuSe banks: one broadcast bank per identical tap
        support, streaming only the live taps; channels outside every group
        (fully pruned) produce zero rows with no array cycles."""
        c, oh, ow = node.out_shape
        sh, sw = spec.stride_hw
        out = np.zeros((c, oh, ow))
        cycles = 0
        covered: set = set()
        for taps, chans in packed.tap_groups:
            covered.update(chans)
            chans = list(chans)
            if spec.axis == "row":
                lines = xp[chans][:, ::sh, :].reshape(len(chans) * oh,
                                                      xp.shape[2])
                weights = np.repeat(w[chans], oh, axis=0)
                run = self.sim.run_conv1d_packed(lines, weights,
                                                 stride=sw, taps=taps)
                out[chans] = run.values.reshape(len(chans), oh, ow)
            else:
                lines = xp[chans][:, :, ::sw].transpose(0, 2, 1) \
                    .reshape(len(chans) * ow, xp.shape[1])
                weights = np.repeat(w[chans], ow, axis=0)
                run = self.sim.run_conv1d_packed(lines, weights,
                                                 stride=sh, taps=taps)
                out[chans] = run.values.reshape(len(chans), ow, oh) \
                    .transpose(0, 2, 1)
            cycles += run.cycles
        dropped = [ch for ch in range(c) if ch not in covered]
        if dropped and np.any(w[dropped]):
            raise ValueError(
                f"fuse1d packing of {node.name!r} drops channels with "
                f"nonzero weights — run apply_pruning with the matching "
                f"transform first")
        return out, cycles

    def _linear(self, node, x, packed=None):
        module = self.model.module_for(node.name)
        w = module.weight.data.astype(np.float64)
        a = x.reshape(1, -1).astype(np.float64)
        if packed is not None:
            run = self.sim.run_packed_gemm(a, w.T, packed)
        else:
            run = self.sim.run_gemm(a, w.T)
        return run.values.reshape(node.out_shape), run.cycles

    def _squeeze_excite(self, node, x):
        module = self.model.module_for(node.name)
        squeezed = x.mean(axis=(1, 2)).reshape(1, -1).astype(np.float64)
        run1 = self.sim.run_gemm(squeezed, module.fc1.weight.data.T.astype(np.float64))
        hidden = np.maximum(run1.values + module.fc1.bias.data, 0.0)
        run2 = self.sim.run_gemm(hidden, module.fc2.weight.data.T.astype(np.float64))
        raw = run2.values.reshape(-1) + module.fc2.bias.data
        scale = np.clip(raw + 3.0, 0.0, 6.0) / 6.0  # h-sigmoid
        return x * scale[:, None, None], run1.cycles + run2.cycles

    # ------------------------------------------------------------ host ops

    def _host(self, node, inputs) -> np.ndarray:
        """Non-array layers run on the host via the GraphExecutor modules."""
        tensors = [Tensor(np.asarray(v, dtype=np.float32)[None]) for v in inputs]
        out = self.model._run_node(node, tensors)
        return out.data[0].astype(np.float64)

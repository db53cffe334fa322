"""Compiled inference runtime: static plans for :class:`GraphExecutor`.

The eager executor re-derives everything per forward: it builds autograd
closures it never uses at inference, lets ``np.einsum`` re-search its
contraction path per op, allocates a fresh array for every output and
runs BatchNorm unfolded.  :func:`compile_executor` pays those costs once,
turning a ``GraphExecutor`` plus a concrete input shape into an
:class:`InferencePlan`:

* **graph compilation** — one pass over the (already topologically
  ordered) IR decides a static op list with per-op shapes inferred once;
  each op becomes a zero-argument closure over preallocated buffers and
  the no-tape kernels of :mod:`repro.nn.functional`;
* **constant folding** — everything that depends only on weights and
  hyper-parameters is evaluated at compile time: BatchNorm ``scale`` /
  ``shift`` from the running statistics, folded convolution filters,
  grouped-weight reshapes, padding geometry, window views and
  ``np.einsum_path`` contraction orders;
* **Conv+BN folding & activation fusion** — a BatchNorm that is the sole
  consumer of a Conv / Depthwise / FuSe-1D / Pointwise / Linear op is
  folded into its weights and bias; a following ReLU / ReLU6 / h-swish
  (any :data:`repro.nn.functional.ACTIVATIONS` entry) is fused as an
  in-place post-op on the producer's output buffer;
* **arena memory planning** — output buffers are views into a pool of
  slabs recycled by liveness (a buffer returns to the pool after its last
  consumer), so a whole forward runs in a fixed, preallocated footprint.
  Padded inputs get dedicated scratch whose zero / ``-inf`` borders are
  written once at compile time and only the interior per run.

Bit-exactness policy (PR-3 convention): with folding and fusion disabled
(:meth:`CompileConfig.exact`) every kernel mirrors the eager float
operation sequence, so the plan output is **bit-identical** to
``GraphExecutor.forward`` — regression-tested.  With folding enabled the
output is float-close (max-abs error ≤ 1e-4 on unit-scale activations,
see ``docs/runtime.md``).

Example:
    >>> import numpy as np
    >>> from repro.models import build_model
    >>> from repro.nn import GraphExecutor
    >>> from repro.nn.compile import compile_executor
    >>> net = build_model("mobilenet_v2", num_classes=10, resolution=32)
    >>> model = GraphExecutor(net, seed=0).eval()
    >>> plan = compile_executor(model, (2, 3, 32, 32))
    >>> plan.run(np.zeros((2, 3, 32, 32), dtype=np.float32)).shape
    (2, 10)

A plan freezes the model: weights (folded or referenced) and shapes are
captured at compile time, so recompile after mutating parameters, and
build one plan per batch size.  Compilation has two halves: the pass
pipeline builds a batch-independent :class:`~repro.nn.passes.Transform`
(BN folds, pruning, int8 calibration and weight codes), and a lowering
lays out the arena and binds the step closures for one input shape.
``compile_executor(..., transform=plan.transform)`` lowers an existing
transform at another batch size without re-running the pipeline.
``run()`` is serialized by an internal lock because concurrent runs
would race on the shared arena.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import inject
from ..ir import layer as ir
from ..ir.network import Network, Node
from ..obs import get_logger, get_registry, get_tracer
from . import functional as F
from .functional import _pad_amounts, _windows
from .layers import BatchNorm2d, SqueezeExcite
from .passes import (
    _FOLDABLE,
    _PlanNode,
    _conv_geometry,
    PassResult,
    Pipeline,
    Transform,
)
from .quantize import activation_lut, lut_uint8_order, observe_plan

__all__ = ["CompileConfig", "PlanStats", "InferencePlan", "compile_executor"]

_log = get_logger("nn.compile")

#: Code width of int8 plans: symmetric codes in ``[-_LEVELS, _LEVELS]``.
QUANTIZE_BITS = 8
_LEVELS = 2 ** (QUANTIZE_BITS - 1) - 1
#: Synthetic calibration set, used when ``CompileConfig.calibration_data``
#: is unset: ``CALIBRATION_BATCHES`` seeded standard-normal batches of
#: ``CALIBRATION_BATCH`` images each.  One fixed set per model, whatever
#: the plan's batch size, so the batch an input rides in moves its int8
#: answer by float rounding only.
CALIBRATION_BATCHES = 2
CALIBRATION_BATCH = 8
CALIBRATION_SEED = 2021


@dataclass(frozen=True)
class CompileConfig:
    """Plan optimization switches — a spec for the pass pipeline.

    Every config maps to an ordered list of :mod:`repro.nn.passes`
    passes via :meth:`Pipeline.from_config` (see :meth:`pipeline_spec`);
    the plan builders then consume the resulting transform.  The default
    enables folding/fusion; :meth:`exact` is the bit-exact preset
    serving uses for its deterministic (``bitexact``) path.
    """

    fold_bn: bool = True            #: fold BatchNorm into producer weights
    fuse_activations: bool = True   #: in-place activation post-ops
    constant_fold: bool = True      #: precompute BN scale/shift constants
    quantize: bool = False          #: int8 PTQ plan (see :meth:`int8`)
    sparsity: float = 0.0           #: magnitude-prune target (0 = no prune)
    prune_scope: str = "layer"      #: "layer" or "global" threshold scope
    #: Per-layer sparsity overrides as ``((name, target), ...)`` pairs —
    #: a tuple (not a dict) so the frozen config stays hashable.
    layer_sparsity: Optional[Tuple[Tuple[str, float], ...]] = None
    pack: bool = False              #: column-combine pruned weights
    pack_gamma: int = 8             #: max columns sharing one physical column
    pack_conflict: str = "prune"    #: "disjoint" or "prune" (joint opt.)
    #: Optional representative calibration inputs — a tuple of (N, C, H, W)
    #: float arrays (any N, same CHW as the plan).  Without it the
    #: observer pass runs on :data:`CALIBRATION_BATCHES` seeded
    #: standard-normal batches of :data:`CALIBRATION_BATCH` images, which
    #: matches serving's seed-derived inputs but NOT a model trained on a
    #: real data distribution: always calibrate on real data when the
    #: model has been trained.  Excluded from config equality/hash.
    calibration_data: Optional[Tuple[np.ndarray, ...]] = field(
        default=None, repr=False, compare=False)

    def pipeline_spec(self) -> Tuple[str, ...]:
        """The ordered pass names this config compiles through."""
        return Pipeline.from_config(self).names

    @classmethod
    def exact(cls) -> "CompileConfig":
        """Bit-identical-to-eager preset (folding and fusion off)."""
        return cls(fold_bn=False, fuse_activations=False, constant_fold=False)

    @classmethod
    def sparse(
        cls,
        sparsity: float = 0.75,
        gamma: int = 8,
        conflict: str = "prune",
        scope: str = "layer",
        layer_sparsity: Optional[Sequence[Tuple[str, float]]] = None,
    ) -> "CompileConfig":
        """Pruned + column-combined preset (Kung et al. packing).

        Magnitude-prunes conv-like layers to ``sparsity`` after BN
        folding, then packs sparse weight columns into dense physical
        array columns with group-size limit ``gamma`` under ``conflict``
        resolution.  The float plan executes the pruned dense network
        (bit-exact against it); the packing metadata rides on
        ``plan.packing`` for the systolic latency model and executor.
        ``gamma=1`` is the identity packing — a dense-schedule no-op.
        """
        pairs = None if layer_sparsity is None else tuple(
            (str(n), float(s)) for n, s in layer_sparsity)
        return cls(sparsity=sparsity, prune_scope=scope,
                   layer_sparsity=pairs, pack=True, pack_gamma=gamma,
                   pack_conflict=conflict)

    @classmethod
    def sparse_int8(
        cls,
        sparsity: float = 0.75,
        gamma: int = 8,
        conflict: str = "prune",
        scope: str = "layer",
        layer_sparsity: Optional[Sequence[Tuple[str, float]]] = None,
        calibration_data: Optional[Sequence[np.ndarray]] = None,
    ) -> "CompileConfig":
        """:meth:`sparse` composed with :meth:`int8`: prune → pack →
        quantize, calibrated on the pruned weights."""
        base = cls.sparse(sparsity=sparsity, gamma=gamma, conflict=conflict,
                          scope=scope, layer_sparsity=layer_sparsity)
        data = None if calibration_data is None else tuple(calibration_data)
        return dataclass_replace(base, quantize=True, calibration_data=data)

    @classmethod
    def int8(cls, calibration_data: Optional[Sequence[np.ndarray]] = None
             ) -> "CompileConfig":
        """Quantized preset: per-channel int8 PTQ of the folded network.

        Weights are quantized at compile time (per-channel symmetric, on
        the BN-folded filters), activation ranges are calibrated with a
        small observer pass, and the plan executes integer GEMM kernels
        with requantization fused at each op boundary.  Ops without an
        integer kernel fall back to float per op (counted in the
        ``runtime.int8_fallbacks`` gauge and ``PlanStats``).

        ``calibration_data`` (batches of representative inputs) replaces
        the synthetic standard-normal calibration set — pass it whenever
        the model was trained on a concrete data distribution.
        """
        data = None if calibration_data is None else tuple(calibration_data)
        return cls(quantize=True, calibration_data=data)


@dataclass
class PlanStats:
    """What compilation did — surfaced by ``repro compile-stats``."""

    network: str
    batch: int
    input_shape: Tuple[int, ...]
    nodes: int                   #: IR nodes walked
    ops: int                     #: plan steps after fusion
    folded_bn: int               #: BatchNorm layers folded into weights
    fused_activations: int       #: activations fused into producers
    arena_bytes: int             #: preallocated footprint (slabs + scratch)
    pooled_bytes: int            #: reusable slab pool subset of the arena
    naive_bytes: int             #: footprint without reuse (fresh per op)
    compile_ms: float = 0.0
    int8_ops: int = 0            #: steps executing integer-domain math
    int8_fallbacks: int = 0      #: steps that fell back to float per op
    sparsity: float = 0.0        #: zero fraction over pruned layers
    packed_columns: int = 0      #: physical array columns after combining
    params_removed: int = 0      #: weights zeroed by prune + conflict drops
    columns_combined: int = 0    #: original columns absorbed into shared ones

    @property
    def ops_fused(self) -> int:
        return self.folded_bn + self.fused_activations

    @property
    def arena_saving(self) -> float:
        """Fraction of the naive footprint the arena planner avoided."""
        if self.naive_bytes <= 0:
            return 0.0
        return 1.0 - self.arena_bytes / self.naive_bytes

class _Arena:
    """Slab allocator with liveness-driven reuse.

    ``acquire`` hands out a view into the smallest free slab that fits
    (or a new one); ``release`` returns the slab to the pool.  Dedicated
    buffers (padded scratch with persistent borders) bypass the pool.

    Slabs are raw byte arrays so one pool serves mixed buffer widths —
    the int8 plan interleaves int8 activation codes, float32/float64
    accumulator lanes and float scratch in the same arena.  A view is
    always taken at slab offset 0, so alignment holds for every dtype.
    """

    def __init__(self, dtype: np.dtype) -> None:
        self.dtype = np.dtype(dtype)  # default dtype for acquire()
        self.slabs: List[np.ndarray] = []
        self.dedicated: List[np.ndarray] = []
        self._free: List[np.ndarray] = []

    def acquire(
        self, shape: Tuple[int, ...], dtype: Optional[np.dtype] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Returns ``(slab, view)``; pass ``slab`` back to :meth:`release`."""
        dt = self.dtype if dtype is None else np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        fits = [(s.nbytes, i) for i, s in enumerate(self._free)
                if s.nbytes >= nbytes]
        if fits:
            _, i = min(fits)
            slab = self._free.pop(i)
        else:
            slab = np.empty(nbytes, dtype=np.uint8)
            self.slabs.append(slab)
        return slab, slab[:nbytes].view(dt).reshape(shape)

    def release(self, slab: np.ndarray) -> None:
        self._free.append(slab)

    def dedicate(self, array: np.ndarray) -> np.ndarray:
        self.dedicated.append(array)
        return array

    @property
    def pooled_bytes(self) -> int:
        return sum(s.nbytes for s in self.slabs)

    @property
    def total_bytes(self) -> int:
        return self.pooled_bytes + sum(a.nbytes for a in self.dedicated)


class _StepAlloc:
    """The buffers of one plan step, drawn from the shared arena.

    Acquisition order is the op's to choose (it decides which free slabs
    are reused).  Scratch is released by :meth:`close` once the step is
    built, so no two buffers of one step alias, and later steps recycle
    it — safe because a scratch is only written while its own step runs.
    ``extra`` counts scratch and dedicated bytes for ``naive_bytes``.
    """

    def __init__(self, arena: _Arena) -> None:
        self.arena = arena
        self.extra = 0
        self.slab: Optional[np.ndarray] = None
        self.out: Optional[np.ndarray] = None
        self._scratch: List[np.ndarray] = []

    def scratch(self, shape, dtype=None) -> np.ndarray:
        slab, view = self.arena.acquire(shape, dtype)
        self._scratch.append(slab)
        self.extra += view.nbytes
        return view

    def output(self, shape, dtype=None) -> np.ndarray:
        """Acquire the step's output; a previous output becomes scratch."""
        if self.out is not None:
            self._scratch.append(self.slab)
            self.extra += self.out.nbytes
        self.slab, self.out = self.arena.acquire(shape, dtype)
        return self.out

    def dedicate(self, array: np.ndarray) -> np.ndarray:
        """Keep ``array`` (e.g. a padded input with fixed borders) for good."""
        self.extra += array.nbytes
        return self.arena.dedicate(array)

    def post_op(self, act: Optional[Node], shape, dtype=None):
        """``(post, scratch)`` of a fused activation, ``(None, None)``
        without one; see :func:`_act_post_op`."""
        if act is None:
            return None, None
        post, needs_scratch = _act_post_op(act.layer.fn)
        return post, self.scratch(shape, dtype) if needs_scratch else None

    def close(self) -> None:
        for slab in self._scratch:
            self.arena.release(slab)
        self._scratch = []


# ------------------------------------------------- fused activation post-ops

def _act_post_op(fn: str) -> Tuple[Callable[[np.ndarray, Optional[np.ndarray]], None], bool]:
    """In-place activation ``(buf, scratch) -> None``; bool = needs scratch."""
    if fn == "relu":
        return (lambda buf, scratch: np.maximum(buf, 0.0, out=buf)), False
    if fn == "relu6":
        return (lambda buf, scratch: np.clip(buf, 0.0, 6.0, out=buf)), False
    if fn == "hsigmoid":
        def hsigmoid_(buf, scratch):
            np.add(buf, 3.0, out=buf)
            np.clip(buf, 0.0, 6.0, out=buf)
            np.multiply(buf, 1.0 / 6.0, out=buf)
        return hsigmoid_, False
    if fn == "hswish":
        def hswish_(buf, scratch):
            np.add(buf, 3.0, out=scratch)
            np.clip(scratch, 0.0, 6.0, out=scratch)
            np.multiply(scratch, 1.0 / 6.0, out=scratch)
            np.multiply(buf, scratch, out=buf)
        return hswish_, True
    if fn == "sigmoid":
        def sigmoid_(buf, scratch):
            np.copyto(buf, F.sigmoid_infer(buf))
        return sigmoid_, False
    if fn == "swish":
        def swish_(buf, scratch):
            np.copyto(scratch, F.sigmoid_infer(buf))
            np.multiply(buf, scratch, out=buf)
        return swish_, True
    raise NotImplementedError(f"no fused post-op for activation {fn!r}")


# -------------------------------------------------------------- shape logic

def _conv_out_shape(in_shape, w4, stride_hw, padding, groups):
    n, c, h, w = in_shape
    c_out, c_g, kh, kw = w4.shape
    if c % groups or c_g != c // groups:
        raise ValueError(
            f"conv shape mismatch: input C={c}, weight {w4.shape}, groups={groups}"
        )
    sh, sw = stride_hw
    top, bottom, left, right = _pad_amounts(h, w, kh, kw, sh, sw, padding)
    oh = (h + top + bottom - kh) // sh + 1
    ow = (w + left + right - kw) // sw + 1
    return (n, c_out, oh, ow), (top, bottom, left, right)


# ---------------------------------------------------------------- the plan

class InferencePlan:
    """A compiled, preallocated forward pass for one input shape.

    Call :meth:`run` with an ``(N, C, H, W)`` float array of exactly the
    compiled shape/dtype.  Runs are serialized by an internal lock (the
    arena is shared state); build one plan per concurrent stream if you
    need parallel execution of the same model.
    """

    def __init__(
        self,
        name: str,
        config: CompileConfig,
        input_view: np.ndarray,
        output_view: np.ndarray,
        steps: List[Callable[[], None]],
        labels: List[str],
        stats: PlanStats,
        step_names: Optional[List[str]] = None,
        step_views: Optional[List[np.ndarray]] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.stats = stats
        self.labels = labels
        #: The batch-independent :class:`~repro.nn.passes.Transform` this
        #: plan was lowered from (set by compile_executor); pass it back
        #: as ``transform=`` to lower the same model at another shape.
        self.transform: Optional[Transform] = None
        #: Ordered :class:`~repro.nn.passes.PassResult` records of the
        #: pipeline that produced ``transform``.
        self.pass_results: List[PassResult] = []
        #: :class:`repro.ir.packing.NetworkPacking` when the pipeline ran
        #: column combining — feed it to the systolic latency model and
        #: executor for packed mappings.
        self.packing = None
        self._input = input_view
        self._output = output_view
        self._steps = steps
        self._step_names = step_names or []
        self._step_views = step_views or []
        self._lock = threading.Lock()

    @property
    def input_shape(self) -> Tuple[int, ...]:
        return self._input.shape

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self._output.shape

    def __len__(self) -> int:
        return len(self._steps)

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"InferencePlan({self.name!r}, input={self._input.shape}, "
            f"ops={s.ops}, folded_bn={s.folded_bn}, "
            f"fused_act={s.fused_activations}, arena={s.arena_bytes}B)"
        )

    def run(self, x: np.ndarray) -> np.ndarray:
        """One forward pass; returns a fresh array detached from the arena."""
        x = np.asarray(x)
        if x.shape != self._input.shape:
            raise ValueError(
                f"plan compiled for input {self._input.shape}, got {x.shape}"
            )
        if x.dtype != self._input.dtype:
            raise ValueError(
                f"plan compiled for dtype {self._input.dtype}, got {x.dtype} "
                "(cast the input or recompile)"
            )
        with self._lock, get_tracer().span("plan.run", category="nn",
                                           plan=self.name):
            np.copyto(self._input, x)
            for step in self._steps:
                step()
            return self._output.copy()

    def run_observed(
        self, x: np.ndarray,
        callback: Callable[[str, np.ndarray], None],
    ) -> np.ndarray:
        """:meth:`run`, invoking ``callback(step_name, output_view)`` after
        each step executes.

        This is the activation-calibration hook
        (:func:`repro.nn.quantize.observe_plan`): arena buffers are
        reused between steps but never during one, so the view passed to
        the callback holds exactly that step's output.
        """
        if len(self._step_views) != len(self._steps):
            raise RuntimeError("plan was built without step output views")
        x = np.asarray(x)
        with self._lock:
            np.copyto(self._input, x)
            for step, name, view in zip(
                self._steps, self._step_names, self._step_views
            ):
                step()
                callback(name, view)
            return self._output.copy()


# ------------------------------------------------------------- compilation

def compile_executor(
    executor,
    input_shape: Sequence[int],
    config: Optional[CompileConfig] = None,
    transform: Optional[Transform] = None,
) -> InferencePlan:
    """Compile a :class:`~repro.nn.graph.GraphExecutor` into a static plan.

    Args:
        executor: an **eval-mode** executor (BatchNorm running statistics
            are baked in as constants).
        input_shape: concrete ``(N, C, H, W)`` the plan will accept.
        config: optimization switches; default :class:`CompileConfig()`,
            or the transform's config when ``transform`` is given.
        transform: a :class:`~repro.nn.passes.Transform` of this executor
            and config from an earlier compile (``plan.transform``).  The
            pass pipeline is skipped and only the lowering runs; the plan
            is byte-identical to one compiled without it.
    """
    inject("nn.compile")
    if transform is None:
        config = config or CompileConfig()
    else:
        if transform.executor is not executor:
            raise ValueError("transform was built for another executor")
        if config is not None and config != transform.config:
            raise ValueError(
                f"transform was built for {transform.config}, not {config}")
        config = transform.config
    network: Network = executor.network
    if executor.training:
        raise ValueError(
            "compile_executor needs an eval-mode executor "
            "(call executor.eval() first): plans bake in running statistics"
        )
    input_shape = tuple(int(d) for d in input_shape)
    if len(input_shape) != 4 or input_shape[1:] != tuple(network.input_shape):
        raise ValueError(
            f"input_shape must be (N,) + {tuple(network.input_shape)}, "
            f"got {input_shape}"
        )

    start = time.perf_counter()
    with get_tracer().span("nn.compile", category="nn", network=network.name,
                           batch=input_shape[0], int8=config.quantize):
        if transform is None:
            transform = Pipeline.from_config(config).run(
                executor, network, config)
        plan = _build_plan(executor, network, input_shape, config, transform)
    plan.stats.compile_ms = (time.perf_counter() - start) * 1000.0
    plan.transform = transform
    plan.pass_results = transform.results
    plan.packing = transform.packing
    plan.stats.sparsity = transform.sparsity
    plan.stats.params_removed = sum(
        r.params_removed for r in transform.results)
    plan.stats.columns_combined = sum(
        r.columns_combined for r in transform.results)
    if transform.packing is not None:
        plan.stats.packed_columns = transform.packing.packed_columns

    registry = get_registry()
    registry.gauge("runtime.compile_ms").set(plan.stats.compile_ms)
    registry.gauge("runtime.arena_bytes").set(float(plan.stats.arena_bytes))
    registry.gauge("runtime.ops_fused").set(float(plan.stats.ops_fused))
    if config.quantize:
        registry.gauge("runtime.int8_fallbacks").set(
            float(plan.stats.int8_fallbacks))
    if transform.masks or transform.packing is not None:
        registry.gauge("runtime.sparsity").set(plan.stats.sparsity)
        registry.gauge("runtime.packed_columns").set(
            float(plan.stats.packed_columns))
    registry.counter("runtime.plans").inc()
    _log.info(
        "compiled inference plan", network=network.name, batch=input_shape[0],
        ops=plan.stats.ops, folded_bn=plan.stats.folded_bn,
        fused_act=plan.stats.fused_activations,
        int8_ops=plan.stats.int8_ops, fallbacks=plan.stats.int8_fallbacks,
        arena_kib=f"{plan.stats.arena_bytes / 1024:.0f}",
        ms=f"{plan.stats.compile_ms:.1f}",
    )
    return plan


def _build_plan(
    executor, network: Network, input_shape: Tuple[int, ...],
    config: CompileConfig, transform: Transform,
) -> InferencePlan:
    """Lower the transform's plan nodes into one static step list.

    Every flavor walks the same nodes with the same liveness-driven
    arena.  Float flavors lower each node through the float op table
    (:func:`_build_step`).  The int8 flavor opens with a
    ``QuantizeInput`` step, lowers each node through its integer kernel
    (:func:`_build_int8_step`) or else the float fallback
    (:func:`_float_fallback`), and closes with a ``Dequantize`` step
    whenever the last buffer is not already float in the eager layout.
    """
    n = input_shape[0]
    quantize = config.quantize
    dtype = np.dtype(np.float32)
    if not quantize:
        for p in executor.parameters():
            dtype = p.dtype
            break

    plan_nodes = transform.plan_nodes
    produced_by: Dict[str, int] = {}
    for i, pn in enumerate(plan_nodes):
        for part in (pn.node, pn.bn, pn.act):
            if part is not None:
                produced_by[part.name] = i
    # Liveness: how many steps read each buffer (+1 for the output).  The
    # extra last slot (index -1) is the plan input.
    sources = [[produced_by[src] for src in pn.node.inputs] or [-1]
               for pn in plan_nodes]
    refs = [0] * (len(plan_nodes) + 1)
    for srcs in sources:
        for j in srcs:
            refs[j] += 1
    refs[len(plan_nodes) - 1] += 1

    arena = _Arena(dtype)
    input_view = arena.dedicate(np.zeros(input_shape, dtype=dtype))
    #: Per buffer: ``(slab or None if never released, view, _Repr)``.
    buffers: List[Optional[Tuple[Optional[np.ndarray], np.ndarray, _Repr]]] \
        = [None] * (len(plan_nodes) + 1)
    steps: List[Callable[[], None]] = []
    labels: List[str] = []
    step_names: List[str] = []
    step_views: List[np.ndarray] = []
    naive_bytes = input_view.nbytes
    folded = fused = int8_ops = fallbacks = 0

    def emit(step, label, name, alloc):
        nonlocal naive_bytes
        alloc.close()
        steps.append(step)
        labels.append(label)
        step_names.append(name)
        step_views.append(alloc.out)
        naive_bytes += alloc.out.nbytes + alloc.extra

    if quantize:
        # Quantize + transpose the float NCHW input into int8 NHWC codes
        # (one fused multiply/round/cast pass).
        s_input = _scale_for(transform.amax, "__input__")
        alloc = _StepAlloc(arena)
        nhwc = input_view.transpose(0, 2, 3, 1)
        q_in = alloc.output(nhwc.shape, np.int8)
        scr = alloc.scratch(nhwc.shape, np.float32)
        emit(_requant(nhwc, scr, q_in, 1.0 / s_input, None, -_LEVELS, _LEVELS),
             "QuantizeInput", "__input__", alloc)
        int8_ops += 1
        buffers[-1] = (alloc.slab, q_in, _Repr("i8", s_input, "__input__"))
    else:
        buffers[-1] = (None, input_view, _Repr("f32"))

    for idx, pn in enumerate(plan_nodes):
        entries = [buffers[j][1:] for j in sources[idx]]
        alloc = _StepAlloc(arena)
        label = pn.label
        rep = _Repr("f32", name=pn.out_name)
        if not quantize:
            step = _build_step(executor, pn, [v for v, _ in entries], alloc,
                               config, n, transform)
        else:
            kernel = _build_int8_step(executor, pn, entries, alloc,
                                      transform)
            if kernel is not None:
                step, rep = kernel
                label += ":int8"
                int8_ops += 1
            else:
                step = _float_fallback(executor, pn, entries, alloc, config,
                                       n, transform)
                label += ":float"
                fallbacks += 1
        emit(step, label, pn.out_name, alloc)
        buffers[idx] = (alloc.slab, alloc.out, rep)
        folded += pn.bn is not None
        fused += pn.act is not None
        # Release buffers whose last consumer this step was.
        for j in sources[idx]:
            refs[j] -= 1
            if refs[j] == 0 and buffers[j][0] is not None:
                arena.release(buffers[j][0])

    _, output_view, last = buffers[len(plan_nodes) - 1]
    if quantize and (last.kind == "i8" or output_view.ndim == 4):
        # Hand back float in the eager layout.
        src = output_view.transpose(0, 3, 1, 2) if output_view.ndim == 4 \
            else output_view
        alloc = _StepAlloc(arena)
        output_view = alloc.output(src.shape, np.float32)

        def finalize(src=src, out=output_view, s=last.scale):
            np.multiply(src, s, out=out)  # a float buffer has scale 1

        emit(finalize, "Dequantize", "__output__", alloc)
        int8_ops += last.kind == "i8"

    stats = PlanStats(
        network=network.name,
        batch=n,
        input_shape=input_shape,
        nodes=len(network),
        ops=len(steps),
        folded_bn=folded,
        fused_activations=fused,
        arena_bytes=arena.total_bytes,
        pooled_bytes=arena.pooled_bytes,
        naive_bytes=naive_bytes,
        int8_ops=int8_ops,
        int8_fallbacks=fallbacks,
    )
    return InferencePlan(
        name=network.name, config=config, input_view=input_view,
        output_view=output_view, steps=steps, labels=labels, stats=stats,
        step_names=step_names, step_views=step_views,
    )


def _build_step(
    executor, pn: _PlanNode, inputs: List[np.ndarray], alloc: _StepAlloc,
    config: CompileConfig, n: int, transform: Transform,
) -> Callable[[], None]:
    """One float plan step over NCHW inputs, output into ``alloc.out``.

    The closure captures every constant — weights, views, einsum path —
    so the per-run body is only the irreducible numpy calls.  Weights
    come from the transform (folded/pruned/packed overrides) when a pass
    produced them, otherwise straight from the module.
    """
    node = pn.node
    spec = node.layer
    x = inputs[0]
    dtype = alloc.arena.dtype

    def finish(out_shape, run_core):
        """Acquire the output (then post-op scratch), wrap the post-op."""
        out = alloc.output(out_shape)
        post, scratch = alloc.post_op(pn.act, out_shape)
        if post is None:
            return lambda: run_core(out)

        def step():
            run_core(out)
            post(out, scratch)
        return step

    # ----------------------------------------------------------- conv-like
    if isinstance(spec, _FOLDABLE) and not isinstance(spec, ir.Linear):
        w4, bias = transform.weight_for(node)
        _, _, stride_hw, padding, groups = _conv_geometry(
            executor.module_for(node.name), node)
        out_shape, pads = _conv_out_shape(x.shape, w4, stride_hw, padding, groups)
        top, bottom, left, right = pads
        pad_buf = None
        if any(pads):
            nb, cb, h, w = x.shape
            pad_buf = alloc.dedicate(np.zeros(
                (nb, cb, h + top + bottom, w + left + right), dtype=dtype))
        # Constant-fold the contraction order (identical to what the
        # kernel's optimize=True would pick per call).  Mirror the
        # depthwise/grouped branch of :func:`conv2d_infer`.
        c_out, c_g, kh, kw = w4.shape
        og = c_out // groups
        c_in = x.shape[1]
        sh, sw = stride_hw
        xp = pad_buf if pad_buf is not None else x
        packed = None if transform.packing is None \
            else transform.packing.get(node.name)
        if (groups == 1 and kh == kw == 1 and sh == sw == 1 and xp is x
                and packed is not None and packed.kind == "gemm"
                and packed.dropped > 0 and packed.groups):
            # Fully-pruned output channels: contract only the live rows
            # and write each dropped channel's bias directly — exactly
            # what the dense kernel produces for an all-zero filter on
            # finite inputs (see pointwise_pruned_infer).
            live = np.array(sorted(j for g in packed.groups for j in g),
                            dtype=np.intp)
            drop = np.array(sorted(set(range(c_out)) - set(live.tolist())),
                            dtype=np.intp)
            w_live = np.ascontiguousarray(w4.reshape(c_out, c_in)[live])
            bias_live = None if bias is None \
                else np.ascontiguousarray(bias[live])
            fill = np.zeros(len(drop), dtype=dtype) if bias is None \
                else bias[drop].astype(dtype, copy=True)
            path = np.einsum_path("nchw,oc->nohw", x, w_live,
                                  optimize=True)[0]
            out = alloc.output(out_shape)
            scratch = alloc.scratch((out_shape[0], len(live)) + out_shape[2:])
            alloc.close()  # the post-op scratch may reuse it: they run in turn
            post, pscr = alloc.post_op(pn.act, out_shape)

            def step(x=x, w_live=w_live, bias_live=bias_live, live=live,
                     drop=drop, fill=fill, scratch=scratch, out=out,
                     path=path, post=post, pscr=pscr):
                F.pointwise_pruned_infer(
                    x, w_live, bias_live, live, drop, fill,
                    out=out, scratch=scratch, path=path)
                if post is not None:
                    post(out, pscr)

            return step
        if groups == 1 and kh == kw == 1 and sh == sw == 1 and xp is x:
            path = np.einsum_path(
                "nchw,oc->nohw", x, w4.reshape(c_out, c_in),
                optimize=True)[0]

            def run_core(out, x=x, w4=w4, bias=bias, stride=stride_hw,
                         padding=padding, groups=groups, path=path):
                F.conv2d_infer(x, w4, bias, stride, padding, groups,
                               out=out, pad_buf=None, path=path)

            return finish(out_shape, run_core)
        win = _windows(xp, kh, kw, *stride_hw)
        if groups == c_in and og == 1 and c_g == 1:
            path = np.einsum_path(
                "nchwkl,ckl->nchw", win, w4.reshape(c_in, kh, kw),
                optimize=True)[0]
        else:
            win_g = win.reshape(
                n, groups, c_in // groups, out_shape[2], out_shape[3], kh, kw)
            w_g = w4.reshape(groups, og, c_g, kh, kw)
            path = np.einsum_path("ngchwkl,gockl->ngohw", win_g, w_g,
                                  optimize=True)[0]

        def run_core(out, x=x, w4=w4, bias=bias, stride=stride_hw,
                     padding=padding, groups=groups, pad_buf=pad_buf,
                     path=path):
            F.conv2d_infer(x, w4, bias, stride, padding, groups,
                           out=out, pad_buf=pad_buf, path=path)

        return finish(out_shape, run_core)

    # -------------------------------------------------------------- linear
    if isinstance(spec, ir.Linear):
        weight, bias = transform.weight_for(node)
        wt = weight.T

        def run_core(out, x=x, wt=wt, bias=bias):
            np.matmul(x, wt, out=out)
            if bias is not None:
                np.add(out, bias, out=out)

        return finish((n, weight.shape[0]), run_core)

    # ---------------------------------------------------------- batch norm
    if isinstance(spec, ir.BatchNorm):
        if config.constant_fold:
            scale, shift = transform.constants[node.name]
            view = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
            scale_v = scale.reshape(view).astype(dtype)
            shift_v = shift.reshape(view).astype(dtype)

            def run_core(out, x=x, scale_v=scale_v, shift_v=shift_v):
                np.multiply(x, scale_v, out=out)
                np.add(out, shift_v, out=out)
        else:
            module: BatchNorm2d = executor.module_for(node.name)
            gamma, beta = module.gamma.data, module.beta.data
            rm, rv, eps = module.running_mean, module.running_var, module.eps

            def run_core(out, x=x, gamma=gamma, beta=beta, rm=rm, rv=rv,
                         eps=eps):
                F.batch_norm_infer(x, gamma, beta, rm, rv, eps, out=out)

        return finish(x.shape, run_core)

    # ---------------------------------------------------------- activation
    if isinstance(spec, ir.Activation):
        fn = F.ACTIVATIONS_INFER[spec.fn]

        def run_core(out, x=x, fn=fn):
            np.copyto(out, fn(x))

        return finish(x.shape, run_core)

    # ------------------------------------------------------ squeeze-excite
    if isinstance(spec, ir.SqueezeExcite):
        module: SqueezeExcite = executor.module_for(node.name)
        w1, b1 = module.fc1.weight.data, module.fc1.bias.data
        w2, b2 = module.fc2.weight.data, module.fc2.bias.data
        c = x.shape[1]

        def run_core(out, x=x, w1=w1, b1=b1, w2=w2, b2=b2, c=c):
            squeezed = F.global_avg_pool_infer(x)
            hidden = F.relu_infer(F.linear_infer(squeezed, w1, b1))
            scale = F.hsigmoid_infer(F.linear_infer(hidden, w2, b2))
            np.multiply(x, scale.reshape(x.shape[0], c, 1, 1), out=out)

        return finish(x.shape, run_core)

    # ------------------------------------------------------------ plumbing
    if isinstance(spec, ir.Add):
        rest = inputs[1:]

        def run_core(out, x=x, rest=rest):
            np.add(x, rest[0], out=out)
            for other in rest[1:]:
                np.add(out, other, out=out)

        return finish(x.shape, run_core)

    if isinstance(spec, ir.Concat):
        channels = sum(v.shape[1] for v in inputs)
        out_shape = (n, channels) + x.shape[2:]

        def run_core(out, inputs=tuple(inputs)):
            np.concatenate(inputs, axis=1, out=out)

        return finish(out_shape, run_core)

    if isinstance(spec, ir.ChannelSplit):
        start, stop = spec.start, spec.stop
        out_shape = (n, stop - start) + x.shape[2:]

        def run_core(out, x=x, start=start, stop=stop):
            np.copyto(out, x[:, start:stop])

        return finish(out_shape, run_core)

    if isinstance(spec, ir.Pool2D):
        kh, kw = spec.kernel_hw
        sh, sw = spec.stride_hw
        if spec.op == "avg":
            if spec.padding not in (0, (0, 0)):
                raise NotImplementedError(
                    "padded average pooling is not executable; use padding=0"
                )
            nb, cb, h, w = x.shape
            out_shape = (nb, cb, (h - kh) // sh + 1, (w - kw) // sw + 1)

            def run_core(out, x=x, kernel=(kh, kw), stride=(sh, sw)):
                F.avg_pool2d_infer(x, kernel, stride, out=out)

            return finish(out_shape, run_core)

        nb, cb, h, w = x.shape
        top, bottom, left, right = _pad_amounts(h, w, kh, kw, sh, sw,
                                                spec.padding)
        pad_buf = None
        if top or bottom or left or right:
            pad_buf = alloc.dedicate(np.full(
                (nb, cb, h + top + bottom, w + left + right), -np.inf,
                dtype=dtype))
        out_shape = (nb, cb,
                     (h + top + bottom - kh) // sh + 1,
                     (w + left + right - kw) // sw + 1)
        pool_padding = spec.padding

        def run_core(out, x=x, kernel=(kh, kw), stride=(sh, sw),
                     padding=pool_padding, pad_buf=pad_buf):
            F.max_pool2d_infer(x, kernel, stride, padding,
                               out=out, pad_buf=pad_buf)

        return finish(out_shape, run_core)

    if isinstance(spec, ir.GlobalAvgPool):
        def run_core(out, x=x):
            F.global_avg_pool_infer(x, out=out)

        return finish((n, x.shape[1]), run_core)

    if isinstance(spec, ir.Flatten):
        flat = (n, int(np.prod(x.shape[1:], dtype=np.int64)))

        def run_core(out, x=x, flat=flat):
            np.copyto(out, x.reshape(flat))

        return finish(flat, run_core)

    raise NotImplementedError(
        f"no compiled op for {node.kind} ({node.name})"
    )


# ------------------------------------------------------------- int8 plan
#
# The quantized plan (``CompileConfig.int8()``) shares the driver, the
# fuse passes, the geometry helpers, the arena and the float op table
# with the float flavors.  What it adds:
#
# * **channels-last** — int8 buffers are NHWC internally; contiguous
#   channel-axis passes make the depthwise tap loop ~2.7x faster than
#   the float plan's NCHW windowed einsum (the input is transposed and
#   quantized once at the top, the output converted back at the bottom);
# * **per-node representation** — every produced buffer is either int8
#   codes with a scale (symmetric, zero-point 0) or plain float;
#   :func:`_build_int8_step` holds the integer kernels, and every op
#   without one — or whose inputs are not all codes — runs the float op
#   table through :func:`_float_fallback` (``PlanStats.int8_fallbacks``,
#   surfaced as the ``runtime.int8_fallbacks`` gauge);
# * **requantize fused at op boundaries** — each integer GEMM rescales
#   its int32-valued accumulator straight to the consumer's grid, with
#   ReLU/ReLU6 folded into the clip bounds and curved activations
#   (h-swish & friends) applied analytically before the one rounding;
#   only a standalone activation on codes is a 256-entry LUT gather;
# * **float head** — Linear layers (the logits producer) stay in float,
#   standard PTQ practice that protects top-1 agreement.
#
# Calibration runs a float plan of identical fuse structure (BN folded,
# activations *not* fused, so both pre- and post-activation ranges are
# observed) over one fixed set of seeded standard-normal images — the
# same distribution serving inputs are drawn from (``make_input``).  It
# and the weight codes belong to the batch-independent transform, so
# every batch size of one model shares them.


@dataclass
class _Repr:
    """How the int8 plan represents one produced buffer."""

    kind: str          # "i8" (codes + scale) or "f32" (float values)
    scale: float = 1.0  # code scale (meaningful for kind == "i8")
    name: str = ""      # producing step's out_name (range lookup)


def _scale_for(amax: Dict[str, float], name: str) -> float:
    a = amax.get(name, 0.0)
    return a / _LEVELS if a > 0 else 1.0


def _requant(src, acc, out, m, b, low, high,
             post=None, post_scr=None, inv_out=1.0):
    """Closure: requantize ``src`` into int8 ``out`` through float ``acc``.

    Direct path (``post is None``): ``m``/``b`` already target the
    output grid — ``out = clip(rint(src·m + b))``, one rounding.
    Curved path: ``m``/``b`` target the *value* domain; the float
    activation ``post`` runs analytically on the exact accumulator,
    then one rounding onto the output grid (``× inv_out``).
    """
    if post is None:
        def run(src=src, acc=acc, m=m, b=b, low=low, high=high, out=out):
            np.multiply(src, m, out=acc)
            if b is not None:
                np.add(acc, b, out=acc)
            np.rint(acc, out=acc)
            np.clip(acc, low, high, out=acc)
            np.copyto(out, acc, casting="unsafe")
    else:
        def run(src=src, acc=acc, m=m, b=b, low=low, high=high,
                post=post, ps=post_scr, inv=inv_out, out=out):
            np.multiply(src, m, out=acc)
            if b is not None:
                np.add(acc, b, out=acc)
            post(acc, ps)
            np.multiply(acc, inv, out=acc)
            np.rint(acc, out=acc)
            np.clip(acc, low, high, out=acc)
            np.copyto(out, acc, casting="unsafe")
    return run


def _calibration_batches(config: CompileConfig,
                         chw: Sequence[int]) -> List[np.ndarray]:
    """The calibration set: ``config.calibration_data`` validated against
    the network's ``(C, H, W)``, else the synthetic seeded set."""
    chw = tuple(int(d) for d in chw)
    if config.calibration_data is None:
        rng = np.random.default_rng(CALIBRATION_SEED)
        return [rng.standard_normal((CALIBRATION_BATCH,) + chw)
                .astype(np.float32) for _ in range(CALIBRATION_BATCHES)]
    batches = [np.asarray(b, dtype=np.float32)
               for b in config.calibration_data]
    if not batches:
        raise ValueError("calibration_data must hold at least one batch")
    for b in batches:
        if b.ndim != 4 or b.shape != batches[0].shape:
            raise ValueError(
                "calibration batches must share one (N, C, H, W) shape; "
                f"got {[tuple(x.shape) for x in batches]}")
    if batches[0].shape[1:] != chw:
        raise ValueError(
            f"calibration batches have shape {tuple(batches[0].shape)}, "
            f"the network input is {chw} (C, H, W must match)")
    return batches


def _calibrate_activations(
    executor, network: Network, config: CompileConfig,
    batches: List[np.ndarray], transform: Optional[Transform] = None,
) -> Dict[str, float]:
    """Observer pass: per-step max-abs ranges from a float folded plan.

    The calibration plan folds BN like the int8 plan but keeps
    activations *unfused*, so every conv's pre-activation range and
    every activation's post-range get their own observer entry.  When
    the main pipeline's ``transform`` is given (sparse presets), its
    weight overrides are copied into the calibration plan so observed
    ranges match the pruned weights the int8 plan actually executes.
    """
    calib_config = CompileConfig(fold_bn=config.fold_bn,
                                 fuse_activations=False, constant_fold=True)
    calib_tf = Pipeline.from_config(calib_config).run(
        executor, network, calib_config)
    if transform is not None:
        calib_tf.weights.update(transform.weights)
    calib_plan = _build_plan(executor, network, batches[0].shape,
                             calib_config, calib_tf)
    observers = observe_plan(calib_plan, batches)
    return {name: obs.amax for name, obs in observers.items()}


def _float_fallback(
    executor, pn: _PlanNode, entries, alloc: _StepAlloc,
    config: CompileConfig, n: int, transform: Transform,
) -> Callable[[], None]:
    """An int8-plan step without an integer kernel: the float op table.

    Int8 codes are dequantized, and NHWC float maps copied, into NCHW
    float scratch (2-d float inputs are read in place); the float op
    (:func:`_build_step`) runs in the eager layout, and a 4-d result is
    transposed into the step's NHWC float output.
    """
    inputs, preps = [], []
    for view, rep in entries:
        if rep.kind == "f32" and view.ndim == 2:
            inputs.append(view)
            continue
        src = view.transpose(0, 3, 1, 2) if view.ndim == 4 else view
        buf = alloc.scratch(src.shape, np.float32)
        preps.append((src, buf, rep.scale))  # a float buffer has scale 1
        inputs.append(buf)
    run_op = _build_step(executor, pn, inputs, alloc, config, n, transform)
    out_f = alloc.out
    if out_f.ndim == 4:
        alloc.output(out_f.transpose(0, 2, 3, 1).shape, np.float32)
    elif not preps:
        return run_op

    def step(preps=tuple(preps), run_op=run_op, out_f=out_f, out=alloc.out):
        for src, buf, scale in preps:
            np.multiply(src, scale, out=buf)
        run_op()
        if out is not out_f:
            np.copyto(out, out_f.transpose(0, 2, 3, 1))

    return step


def _build_int8_step(
    executor, pn: _PlanNode, entries, alloc: _StepAlloc,
    transform: Transform,
) -> Optional[Tuple[Callable[[], None], _Repr]]:
    """One int8 plan step through its integer kernel: ``(closure, out
    repr)``, or ``None`` — before acquiring anything — when the op has no
    integer kernel or its inputs are not all int8 codes (conv-like ops
    quantize a float input on the fly instead).

    Scratch is acquired before the output buffer.
    """
    node = pn.node
    spec = node.layer
    amax = transform.amax
    x_view, x_repr = entries[0]
    codes = all(rep.kind == "i8" for _, rep in entries)

    def as_codes(view, rep):
        """(prep, codes, scale): quantize a float input on the fly."""
        if rep.kind == "i8":
            return None, view, rep.scale
        s = _scale_for(amax, rep.name)
        qv = alloc.scratch(view.shape, np.int8)
        fv = alloc.scratch(view.shape, np.float32)
        return _requant(view, fv, qv, 1.0 / s, None, -_LEVELS, _LEVELS), qv, s

    def boundary(s_out, acc):
        """(target, low, high, post, post_scr) of the fused activation.

        ``direct`` activations (none / ReLU / ReLU6) fold entirely into
        the requantize clip bounds — a single rounding straight to the
        output grid (``target = s_out``).  Curved ones (h-swish &
        friends) keep the accumulator in the value domain (``target =
        1``) for their analytic float post-op, then round once onto the
        output grid — no intermediate 8-bit rounding.
        """
        fn = None if pn.act is None else pn.act.layer.fn
        if fn is None:
            return s_out, -_LEVELS, _LEVELS, None, None
        if fn == "relu":
            return s_out, 0, _LEVELS, None, None
        if fn == "relu6":
            return s_out, 0, min(_LEVELS, int(round(6.0 / s_out))), None, None
        post, post_scr = alloc.post_op(pn.act, acc.shape, acc.dtype)
        return 1.0, -_LEVELS, _LEVELS, post, post_scr

    def requant_params(s_in, sw_vec, bias, s_out, acc):
        """``_requant`` arguments after ``out`` for one GEMM boundary."""
        target, low, high, post, post_scr = boundary(s_out, acc)
        m_row = (s_in * np.asarray(sw_vec, np.float64) / target) \
            .astype(np.float32)
        b_row = None if bias is None else \
            (np.asarray(bias, np.float64) / target).astype(np.float32)
        return m_row, b_row, low, high, post, post_scr, 1.0 / s_out

    # ----------------------------------------------------------- conv-like
    if isinstance(spec, _FOLDABLE) and not isinstance(spec, ir.Linear):
        w4, bias = transform.weight_for(node)
        _, _, stride_hw, padding, groups = _conv_geometry(
            executor.module_for(node.name), node)
        nb, h, w, c = x_view.shape
        out_nchw, pads = _conv_out_shape((nb, c, h, w), w4, stride_hw,
                                         padding, groups)
        _, c_out, oh, ow = out_nchw
        top, bottom, left, right = pads
        c_g, kh, kw = w4.shape[1], w4.shape[2], w4.shape[3]
        sh, sw = stride_hw
        out_shape = (nb, oh, ow, c_out)

        depthwise = groups == c and c_g == 1
        pointwise = groups == 1 and kh == kw == 1 and not any(pads)
        if not (depthwise or groups == 1):
            return None  # grouped conv: no integer kernel
        prep, xq, s_in = as_codes(x_view, x_repr)
        s_out = _scale_for(amax, pn.out_name)
        wq, sw_vec = transform.qweights[node.name]
        rep = _Repr("i8", s_out, pn.out_name)

        if depthwise:
            w_lanes = wq.reshape(c, kh, kw).transpose(1, 2, 0) \
                .astype(np.float32)
            pad_buf = None
            if any(pads):
                pad_buf = alloc.dedicate(np.zeros(
                    (nb, h + top + bottom, w + left + right, c),
                    dtype=np.int8))
            acc = alloc.scratch(out_shape, np.float32)
            tap = alloc.scratch(out_shape, np.float32)
            params = requant_params(s_in, sw_vec, bias, s_out, acc)
            req = _requant(acc, acc, alloc.output(out_shape, np.int8),
                           *params)

            def step(prep=prep, xq=xq, pad_buf=pad_buf, top=top,
                     left=left, h=h, w=w, w_lanes=w_lanes,
                     stride=(sh, sw), acc=acc, tap=tap, req=req):
                if prep is not None:
                    prep()
                if pad_buf is not None:
                    np.copyto(pad_buf[:, top:top + h, left:left + w, :],
                              xq)
                    xp = pad_buf
                else:
                    xp = xq
                F.depthwise_int8_nhwc(xp, w_lanes, stride, out=acc,
                                      scratch=tap)
                req()

            return step, rep

        m_total = nb * oh * ow
        if pointwise:
            lane_dt = np.float32 if c <= F.INT8_EXACT_MAX_K \
                else np.float64
            w_lanes = wq.reshape(c_out, c).T.astype(lane_dt)
            x_lanes = alloc.scratch((nb, oh, ow, c), lane_dt)
            acc = alloc.scratch((m_total, c_out), lane_dt)
            params = requant_params(s_in, sw_vec, bias, s_out, acc)
            out = alloc.output(out_shape, np.int8)
            src = xq if sh == sw == 1 \
                else xq[:, :oh * sh:sh, :ow * sw:sw, :]
            req = _requant(acc, acc, out.reshape(m_total, c_out), *params)

            def step(prep=prep, src=src, x_lanes=x_lanes,
                     w_lanes=w_lanes, acc=acc, req=req,
                     m_total=m_total, c=c):
                if prep is not None:
                    prep()
                np.copyto(x_lanes, src)
                np.matmul(x_lanes.reshape(m_total, c), w_lanes, out=acc)
                req()

            return step, rep

        # dense conv: im2col int8 GEMM
        k_depth = kh * kw * c
        lane_dt = np.float32 if k_depth <= F.INT8_EXACT_MAX_K \
            else np.float64
        w_lanes = wq.transpose(2, 3, 1, 0).reshape(k_depth, c_out) \
            .astype(lane_dt)
        pad_buf = None
        xp_static = xq
        if any(pads):
            pad_buf = alloc.dedicate(np.zeros(
                (nb, h + top + bottom, w + left + right, c),
                dtype=np.int8))
            xp_static = pad_buf
        cols = alloc.scratch((m_total, k_depth), lane_dt)
        acc = alloc.scratch((m_total, c_out), lane_dt)
        params = requant_params(s_in, sw_vec, bias, s_out, acc)
        out = alloc.output(out_shape, np.int8)
        req = _requant(acc, acc, out.reshape(m_total, c_out), *params)

        def step(prep=prep, xq=xq, pad_buf=pad_buf, top=top, left=left,
                 h=h, w=w, xp=xp_static, kh=kh, kw=kw, stride=(sh, sw),
                 cols=cols, w_lanes=w_lanes, acc=acc, req=req):
            if prep is not None:
                prep()
            if pad_buf is not None:
                np.copyto(pad_buf[:, top:top + h, left:left + w, :], xq)
            F.im2col_int8_nhwc(xp, kh, kw, stride, out_cols=cols)
            np.matmul(cols, w_lanes, out=acc)
            req()

        return step, rep

    # Linear layers stay float: int8 buys them nothing here (the GEMM
    # already runs on the same BLAS lanes either way) and the classifier
    # head is where PTQ error hurts top-1 agreement the most.  Every
    # other kernel below works on int8 codes only.
    if isinstance(spec, ir.Linear) or not codes:
        return None
    s_in = x_repr.scale

    # ---------------------------------------------------------- batch norm
    if isinstance(spec, ir.BatchNorm):
        scale, shift = executor.module_for(node.name).inference_scale_shift()
        s_out = _scale_for(amax, pn.out_name)
        acc = alloc.scratch(x_view.shape, np.float32)
        params = requant_params(s_in, scale, shift, s_out, acc)
        out = alloc.output(x_view.shape, np.int8)
        return _requant(x_view, acc, out, *params), \
            _Repr("i8", s_out, pn.out_name)

    # ---------------------------------------------------------- activation
    if isinstance(spec, ir.Activation):
        s_out = _scale_for(amax, pn.out_name)
        lut = lut_uint8_order(activation_lut(
            F.ACTIVATIONS_INFER[spec.fn], s_in, s_out, QUANTIZE_BITS))
        out = alloc.output(x_view.shape, np.int8)

        def step(x=x_view, lut=lut, out=out):
            np.take(lut, x.reshape(-1).view(np.uint8), out=out.reshape(-1))

        return step, _Repr("i8", s_out, pn.out_name)

    # ------------------------------------------------------ squeeze-excite
    if isinstance(spec, ir.SqueezeExcite):
        module = executor.module_for(node.name)
        w1, b1 = module.fc1.weight.data, module.fc1.bias.data
        w2, b2 = module.fc2.weight.data, module.fc2.bias.data
        nb, h, w, c = x_view.shape
        pool = alloc.scratch((nb, c), np.float32)
        hidden = alloc.scratch((nb, w1.shape[0]), np.float32)
        gate = alloc.scratch((nb, c), np.float32)
        scr = alloc.scratch(x_view.shape, np.float32)
        out = alloc.output(x_view.shape, np.int8)

        def step(xq=x_view, pool=pool, hidden=hidden, gate=gate,
                 scr=scr, out=out, w1=w1, b1=b1, w2=w2, b2=b2,
                 mean_scale=s_in / (h * w)):
            # Gate computed in float from dequantized channel means;
            # output keeps the input scale, so the excite multiply
            # stays on the codes (gate ∈ [0, 1] cannot overflow).
            np.sum(xq, axis=(1, 2), out=pool)
            np.multiply(pool, mean_scale, out=pool)
            F.linear_infer(pool, w1, b1, out=hidden)
            np.maximum(hidden, 0.0, out=hidden)
            F.linear_infer(hidden, w2, b2, out=gate)
            np.add(gate, 3.0, out=gate)
            np.clip(gate, 0.0, 6.0, out=gate)
            np.multiply(gate, 1.0 / 6.0, out=gate)
            np.multiply(xq, gate[:, None, None, :], out=scr)
            np.rint(scr, out=scr)
            np.copyto(out, scr, casting="unsafe")

        return step, _Repr("i8", s_in, pn.out_name)

    # ------------------------------------------------------------ plumbing
    if isinstance(spec, ir.Add):
        s_out = _scale_for(amax, pn.out_name)
        acc = alloc.scratch(x_view.shape, np.float32)
        tmp = alloc.scratch(x_view.shape, np.float32)
        target, low, high, post, post_scr = boundary(s_out, acc)
        factors = [rep.scale / target for _, rep in entries]
        views = [v for v, _ in entries]
        out = alloc.output(x_view.shape, np.int8)
        # Every addend but the first is summed into ``tmp`` (``acc`` is
        # free until the requantize writes it), which the requantize
        # adds to the first one as its bias.
        req = _requant(views[0], acc, out, factors[0], tmp, low, high,
                       post, post_scr, 1.0 / s_out)

        def step(views=tuple(views[1:]), factors=tuple(factors[1:]),
                 acc=acc, tmp=tmp, req=req):
            np.multiply(views[0], factors[0], out=tmp)
            for v, f in zip(views[1:], factors[1:]):
                np.multiply(v, f, out=acc)
                np.add(tmp, acc, out=tmp)
            req()

        return step, _Repr("i8", s_out, pn.out_name)

    if isinstance(spec, ir.Concat):
        s_out = _scale_for(amax, pn.out_name)
        out_shape = x_view.shape[:-1] + (sum(v.shape[-1] for v, _ in entries),)
        scr = alloc.scratch(out_shape, np.float32)
        out = alloc.output(out_shape, np.int8)
        pieces = []
        a = 0
        for v, rep in entries:
            b = a + v.shape[-1]
            f = rep.scale / s_out
            pieces.append(
                (lambda v=v, o=out[..., a:b]: np.copyto(o, v)) if f == 1.0
                else _requant(v, scr[..., a:b], out[..., a:b], f, None,
                              -_LEVELS, _LEVELS))
            a = b

        def step(pieces=tuple(pieces)):
            for piece in pieces:
                piece()

        return step, _Repr("i8", s_out, pn.out_name)

    if isinstance(spec, ir.ChannelSplit):
        start, stop = spec.start, spec.stop
        out = alloc.output(x_view.shape[:-1] + (stop - start,), np.int8)

        def step(x=x_view, start=start, stop=stop, out=out):
            np.copyto(out, x[..., start:stop])

        return step, _Repr("i8", s_in, pn.out_name)

    if isinstance(spec, ir.GlobalAvgPool):
        nb, h, w, c = x_view.shape
        out = alloc.output((nb, c), np.float32)

        def step(xq=x_view, out=out, mean_scale=s_in / (h * w)):
            np.sum(xq, axis=(1, 2), out=out)
            np.multiply(out, mean_scale, out=out)

        return step, _Repr("f32", name=pn.out_name)

    if isinstance(spec, ir.Flatten) and x_view.ndim == 4:
        # Flatten of a 4-d map follows NCHW semantic order: dequantize
        # through a transposed view.
        nb, h, w, c = x_view.shape
        out4 = alloc.output((nb, c * h * w), np.float32).reshape(nb, c, h, w)

        def step(x=x_view, out4=out4, s=s_in):
            np.multiply(x.transpose(0, 3, 1, 2), s, out=out4)

        return step, _Repr("f32", name=pn.out_name)

    if isinstance(spec, ir.Pool2D):
        kh, kw = spec.kernel_hw
        sh, sw = spec.stride_hw
        nb, h, w, c = x_view.shape
        top, bottom, left, right = _pad_amounts(h, w, kh, kw, sh, sw,
                                                spec.padding)
        if spec.op == "avg" and any((top, bottom, left, right)):
            raise NotImplementedError(
                "padded average pooling is not executable; use padding=0")
        oh = (h + top + bottom - kh) // sh + 1
        ow = (w + left + right - kw) // sw + 1
        out_shape = (nb, oh, ow, c)

        def nhwc_windows(xp):
            s0, s1, s2, s3 = xp.strides
            return np.lib.stride_tricks.as_strided(
                xp, shape=(nb, oh, ow, kh, kw, c),
                strides=(s0, s1 * sh, s2 * sw, s1, s2, s3),
                writeable=False)

        if spec.op == "avg":
            s_out = _scale_for(amax, pn.out_name)
            acc = alloc.scratch(out_shape, np.float32)
            req = _requant(acc, acc, alloc.output(out_shape, np.int8),
                           np.float32(s_in / (kh * kw) / s_out), None,
                           -_LEVELS, _LEVELS)

            def step(win=nhwc_windows(x_view), acc=acc, req=req):
                np.sum(win, axis=(3, 4), out=acc)
                req()

            return step, _Repr("i8", s_out, pn.out_name)

        # max: order-preserving on codes — same scale in and out.
        pad_buf = None
        xp_static = x_view
        if any((top, bottom, left, right)):
            pad_buf = alloc.dedicate(np.full(
                (nb, h + top + bottom, w + left + right, c), -128,
                dtype=np.int8))
            xp_static = pad_buf
        out = alloc.output(out_shape, np.int8)

        def step(x=x_view, pad_buf=pad_buf, top=top, left=left, h=h,
                 w=w, win=nhwc_windows(xp_static), out=out):
            if pad_buf is not None:
                np.copyto(pad_buf[:, top:top + h, left:left + w, :], x)
            np.max(win, axis=(3, 4), out=out)

        return step, _Repr("i8", s_in, pn.out_name)

    return None

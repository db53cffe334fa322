"""Model registry: preload and share executable models across workers.

Building a model for serving is expensive relative to a request — the IR
graph is constructed, FuSe-transformed, and a :class:`GraphExecutor`
materializes deterministic weights from the key's seed — so the registry
builds each :class:`~repro.serve.request.ModelKey` once and shares the
result across every worker thread.  Sharing is safe because serving only
runs forward passes in eval mode: modules are read-only at inference.

The registry also owns the per-model lazy :class:`ArrayNetworkExecutor`
(the simulated-hardware engine) and caches the analytical latency of the
network so the cost model can price batches without re-estimating.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import to_fuseconv
from ..ir.network import Network
from ..models import build_model
from ..nn.graph import GraphExecutor
from ..obs import get_logger, get_registry
from ..systolic import ArrayConfig
from .request import ModelKey

__all__ = ["RegisteredModel", "ModelRegistry"]

_log = get_logger("serve.registry")


@dataclass
class RegisteredModel:
    """One preloaded, shareable model."""

    key: ModelKey
    network: Network                  # FuSe-transformed IR graph
    executor: GraphExecutor           # eval-mode weights (seeded by key.seed)
    input_shape: Tuple[int, int, int]

    # Simulated-hardware executors, one per (array geometry, engine, jobs).
    _array_executors: Dict[Tuple, object] = field(default_factory=dict)
    # Compiled inference plans, one per (batch, flavor); None latches a
    # compilation failure so workers fall back without retrying.  LRU
    # order: a hit moves its entry to the end, inserts evict the front
    # when ``plan_cache_cap`` is set.
    _plans: "OrderedDict[Tuple[int, str], object]" = field(
        default_factory=OrderedDict)
    #: Max cached plans across (batch, flavor) keys; ``None`` = unbounded.
    plan_cache_cap: Optional[int] = None
    #: Prune+pack the non-exact flavors to this sparsity (``None`` = dense).
    #: A pruned network is still one ModelKey — the sparse pipeline rides
    #: the existing ``folded``/``int8`` flavors as plan metadata
    #: (``plan.stats.sparsity`` / ``plan.packing``), never a new lane key.
    sparsity: Optional[float] = None
    #: Column-combining group-size limit for the sparse flavors.
    pack_gamma: int = 8
    # One batch-independent Transform per flavor (BN folds, prune/pack,
    # int8 calibration and weight codes), kept from the flavor's first
    # successful compile and lowered again at every other batch size.
    # It outlives plan evictions.
    _transforms: Dict[str, object] = field(default_factory=dict)
    # Serialize the compiles of one flavor, so a flavor's first compile
    # runs its pass pipeline once however many threads ask for it.
    _compile_locks: Dict[str, threading.Lock] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def array_executor(self, array: ArrayConfig, engine: str = "vector",
                       jobs: int = 1):
        """Lazy :class:`ArrayNetworkExecutor` sharing this model's weights."""
        from ..systolic.executor import ArrayNetworkExecutor

        # datawidth and frequency_mhz are deliberately absent: neither
        # changes what the functional simulator computes.
        cache_key = (array.rows, array.cols, array.broadcast, array.dataflow,
                     array.pipelined_folds, engine, jobs)
        with self._lock:
            executor = self._array_executors.get(cache_key)
            if executor is None:
                executor = ArrayNetworkExecutor(
                    self.network, model=self.executor, array=array,
                    engine=engine, jobs=jobs,
                )
                self._array_executors[cache_key] = executor
        return executor

    #: Plan flavors → CompileConfig factories (see ``plan_for``).
    FLAVORS = ("exact", "folded", "int8")

    def plan_for(self, batch: int, exact: Optional[bool] = None,
                 flavor: Optional[str] = None):
        """Lazy compiled :class:`~repro.nn.compile.InferencePlan`.

        Three flavors, each cached independently per batch size:

        * ``"exact"`` — no folding; output is bit-identical to the eager
          forward (the serving determinism contract);
        * ``"folded"`` — fully folded/fused float plan for throughput;
        * ``"int8"`` — the quantized plan (compile-time PTQ + integer
          kernels; float-close, never bit-exact).

        ``exact=True/False`` is the legacy boolean spelling of
        exact/folded.  Returns ``None`` (latched) if compilation fails,
        so callers degrade down the chain without retrying the build.

        With ``sparsity`` set on the model, ``folded`` and ``int8``
        compile through the sparse pass pipeline (magnitude prune +
        column combining) instead — same flavor keys, and the packing
        rides on the returned plan (``plan.packing``, ``plan.stats``).
        ``exact`` always stays dense: its bit-exactness contract is
        against the unpruned eager forward.

        Each flavor runs its pass pipeline — for int8 that includes the
        calibration and the weight quantization — once per model: later
        batch sizes lower the first plan's transform
        (``compile_executor(..., transform=)``), which gives the same
        bytes as a fresh compile at that batch size.

        The cache is LRU-bounded by ``plan_cache_cap`` (a compiled plan
        pins its weight tensors — across many (batch, flavor) pairs an
        unbounded cache is a slow leak); evictions are counted as
        ``serve.plan_evictions`` and an evicted plan simply recompiles
        on its next use, without re-running the pipeline.
        """
        if flavor is None:
            flavor = "folded" if exact is False else "exact"
        if flavor not in self.FLAVORS:
            raise ValueError(
                f"plan flavor must be one of {self.FLAVORS}, got {flavor!r}")
        cache_key = (int(batch), flavor)
        with self._lock:
            if cache_key in self._plans:
                self._plans.move_to_end(cache_key)
                return self._plans[cache_key]
            compile_lock = self._compile_locks.setdefault(
                flavor, threading.Lock())
        with compile_lock:
            with self._lock:  # a racing caller compiled it meanwhile
                if cache_key in self._plans:
                    self._plans.move_to_end(cache_key)
                    return self._plans[cache_key]
            plan = self._compile(int(batch), flavor)
            if plan is not None:
                self._transforms.setdefault(flavor, plan.transform)
            with self._lock:
                self._plans[cache_key] = plan
                while (self.plan_cache_cap is not None
                       and len(self._plans) > self.plan_cache_cap):
                    evicted_key, _ = self._plans.popitem(last=False)
                    get_registry().counter(
                        "serve.plan_evictions", model=self.key.canonical()
                    ).inc()
                    _log.info("plan evicted (LRU)",
                              model=self.key.canonical(),
                              batch=evicted_key[0], flavor=evicted_key[1],
                              cap=self.plan_cache_cap)
                return plan

    def _compile(self, batch: int, flavor: str):
        """Compile one plan, or ``None`` (logged and counted) on failure."""
        from ..nn.compile import CompileConfig, compile_executor

        if self.sparsity is not None and flavor != "exact":
            config = {
                "folded": CompileConfig.sparse,
                "int8": CompileConfig.sparse_int8,
            }[flavor](sparsity=self.sparsity, gamma=self.pack_gamma)
        else:
            config = {
                "exact": CompileConfig.exact,
                "folded": CompileConfig,
                "int8": CompileConfig.int8,
            }[flavor]()
        try:
            return compile_executor(
                self.executor, (batch,) + tuple(self.input_shape), config,
                transform=self._transforms.get(flavor))
        except Exception as exc:  # degrade down the chain, never kill serving
            get_registry().counter("resilience.compile_fallbacks",
                                   model=self.key.canonical()).inc()
            _log.warning("plan compilation failed; degrading",
                         model=self.key.canonical(), batch=batch,
                         flavor=flavor,
                         error=f"{type(exc).__name__}: {exc}")
            return None


class ModelRegistry:
    """Get-or-build store of :class:`RegisteredModel`, keyed by ModelKey.

    ``plan_cache_cap`` bounds every registered model's compiled-plan LRU
    (see :meth:`RegisteredModel.plan_for`); ``None`` keeps the legacy
    unbounded behavior.  ``sparsity``/``pack_gamma`` switch the non-exact
    plan flavors onto the pruned + column-combined pipeline.
    """

    def __init__(self, plan_cache_cap: Optional[int] = None,
                 sparsity: Optional[float] = None,
                 pack_gamma: int = 8) -> None:
        if plan_cache_cap is not None and plan_cache_cap < 1:
            raise ValueError(
                f"plan_cache_cap must be >= 1 or None, got {plan_cache_cap}")
        if sparsity is not None and not 0.0 <= sparsity < 1.0:
            raise ValueError(
                f"sparsity must be in [0, 1) or None, got {sparsity}")
        if pack_gamma < 1:
            raise ValueError(f"pack_gamma must be >= 1, got {pack_gamma}")
        self.plan_cache_cap = plan_cache_cap
        self.sparsity = sparsity
        self.pack_gamma = pack_gamma
        self._models: Dict[ModelKey, RegisteredModel] = {}
        self._lock = threading.Lock()
        self._building: Dict[ModelKey, threading.Event] = {}

    def keys(self) -> List[ModelKey]:
        with self._lock:
            return list(self._models)

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def get(self, key: ModelKey) -> RegisteredModel:
        """The registered model for ``key``, building it on first use.

        Concurrent callers for the same key block on one build instead of
        duplicating it (build-once latching, same idea as the parallel
        module's pool reuse).
        """
        while True:
            with self._lock:
                model = self._models.get(key)
                if model is not None:
                    return model
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    break  # this thread builds
            event.wait()  # another thread is building: wait and re-check

        try:
            model = self._build(key)
            with self._lock:
                self._models[key] = model
        finally:
            with self._lock:
                self._building.pop(key, None)
            event.set()
        return model

    def preload(self, keys) -> List[RegisteredModel]:
        """Build a batch of keys up front (server start-up)."""
        return [self.get(key) for key in keys]

    def _build(self, key: ModelKey) -> RegisteredModel:
        network = build_model(key.network, resolution=key.resolution)
        if key.fuse_variant is not None:
            network = to_fuseconv(network, key.fuse_variant)
        executor = GraphExecutor(network, seed=key.seed)
        executor.eval()
        get_registry().counter("serve.registry.builds",
                               model=key.canonical()).inc()
        _log.info("registered model", model=key.canonical(),
                  layers=len(list(network)))
        return RegisteredModel(
            key=key,
            network=network,
            executor=executor,
            input_shape=network.input_shape,
            plan_cache_cap=self.plan_cache_cap,
            sparsity=self.sparsity,
            pack_gamma=self.pack_gamma,
        )

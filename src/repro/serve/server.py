"""The inference server: registry + scheduler + workers behind one facade.

:class:`InferenceServer` is transport-agnostic — callers ``await
submit(request)`` from any coroutine on the server's loop; the TCP
JSON-lines front-end in :mod:`repro.serve.transport` and the in-process
load generator in :mod:`repro.serve.loadgen` are both thin clients of
this interface.

Lifecycle::

    server = InferenceServer(ServeConfig(preload=[key1, key2]))
    await server.start()          # builds models off-loop, starts workers
    response = await server.submit(InferenceRequest(key=key1))
    await server.stop()           # drains the queue, joins the workers

Everything observable funnels through :mod:`repro.obs`: per-status
request counters, queue-depth gauge, batch-size / latency / queue-wait
histograms, SLO-violation and shed counters, plus ``serve.*`` spans when
tracing is enabled.  ``stats()`` snapshots the serving-relevant slice of
the registry for reports and smoke checks.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import get_logger, get_registry
from ..obs.alerts import evaluate_alerts
from ..obs.expose import ExpositionServer, render_exposition
from ..obs.snapshots import LiveStats, SnapshotLoop, derive_live
from ..systolic import ArrayConfig
from .blas import SERVING_BLAS, blas_threads
from .costmodel import BatchCostModel
from .registry import ModelRegistry, RegisteredModel
from .request import InferenceRequest, InferenceResponse, ModelKey
from .scheduler import SLOScheduler
from .workers import ENGINES, WorkerPool

__all__ = ["ServeConfig", "InferenceServer"]

_log = get_logger("serve.server")


@dataclass
class ServeConfig:
    """Every serving knob in one place (CLI flags map 1:1 onto fields)."""

    engine: str = "graph"            #: graph | array | analytical
    workers: int = 2                 #: concurrent batch executors
    max_batch: int = 8               #: dynamic batch ceiling
    max_queue: int = 128             #: admission bound (backpressure)
    batch_timeout_ms: float = 0.0    #: linger ceiling; 0 = work-conserving
    slo_ms: float = 100.0            #: default per-request deadline budget
    bitexact: bool = True            #: lockstep batch execution (see workers)
    compile: bool = True             #: compiled InferencePlan graph path
    int8: bool = False               #: default requests onto the int8 plan
    jobs: int = 1                    #: process fan-out of the array engine
    sim_engine: str = "vector"       #: functional-simulator engine
    cache_dir: Optional[str] = None  #: disk cache for cost-model estimates
    plan_cache_cap: Optional[int] = None  #: LRU bound on compiled plans/model
    sparsity: Optional[float] = None  #: prune+pack non-exact plan flavors
    pack_gamma: int = 8              #: column-combining group-size limit
    array: Optional[ArrayConfig] = None  #: modeled accelerator (default 64x64)
    preload: List[ModelKey] = field(default_factory=list)
    resilience: bool = True          #: degradation chain / breakers / restarts
    # Warm-up gate (docs/fleet.md): with ``require_warmup`` the health op
    # reports ``ready: false, warming: true`` until :meth:`warmup` has
    # pre-built the preloaded models and compiled the plans the hot path
    # will use — a fleet supervisor drives ``op: warmup`` with the lanes
    # the ring assigns before the router may route here, so a scale-up
    # never serves a cold plan.
    require_warmup: bool = False
    breaker_threshold: int = 3       #: consecutive failures before open
    breaker_cooldown_s: float = 2.0  #: open → half-open probe delay
    telemetry: bool = True           #: snapshot loop feeding live stats/alerts
    snapshot_interval_s: float = 1.0  #: registry sampling cadence
    metrics_port: Optional[int] = None  #: HTTP exposition port (0 = ephemeral)

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


class InferenceServer:
    """Async dynamic-batching inference server over the reproduction stack."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = ModelRegistry(
            plan_cache_cap=self.config.plan_cache_cap,
            sparsity=self.config.sparsity,
            pack_gamma=self.config.pack_gamma,
        )
        self.cost_model = BatchCostModel(
            array=self.config.array, cache_dir=self.config.cache_dir
        )
        self.scheduler = SLOScheduler(
            self.registry,
            self.cost_model,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            batch_timeout_ms=self.config.batch_timeout_ms,
            default_slo_ms=self.config.slo_ms,
            workers=self.config.workers,
        )
        self.pool = WorkerPool(
            self.scheduler,
            self.registry,
            self.cost_model,
            workers=self.config.workers,
            engine=self.config.engine,
            bitexact=self.config.bitexact,
            jobs=self.config.jobs,
            sim_engine=self.config.sim_engine,
            compiled=self.config.compile,
            resilience=self.config.resilience,
            breaker_threshold=self.config.breaker_threshold,
            breaker_cooldown_s=self.config.breaker_cooldown_s,
        )
        self._started = False
        self._holds_blas = False
        self._warmed = not self.config.require_warmup
        self._snapshots: Optional[SnapshotLoop] = None
        self._exposition: Optional[ExpositionServer] = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "InferenceServer":
        """Build the preloaded models off-loop and start the workers.

        For as long as the server runs it holds numpy's OpenBLAS pool at
        one thread (:mod:`repro.serve.blas`): requests run in parallel on
        the ``workers``, and an idle BLAS pool would only spin beside
        them.  A start that fails partway releases the hold again.
        """
        if self._started:
            return self
        SERVING_BLAS.acquire()
        self._holds_blas = True
        try:
            await self._start()
        except BaseException:
            self._release_blas()
            raise
        return self

    async def _start(self) -> None:
        if self.config.preload:
            def preload() -> None:
                self.registry.preload(self.config.preload)
                for key in self.config.preload:
                    self._price_batches(self.registry.get(key))

            await asyncio.to_thread(preload)
        self.pool.start()
        if self.config.telemetry:
            self._snapshots = SnapshotLoop(
                interval_s=self.config.snapshot_interval_s
            ).start()
        if self.config.metrics_port is not None:
            self._exposition = ExpositionServer(
                port=self.config.metrics_port,
                metrics_fn=render_exposition,
                telemetry_fn=self.telemetry_payload,
            ).start()
            _log.info("metrics exposition listening",
                      port=self._exposition.port)
        self._started = True
        _log.info(
            "server started", engine=self.config.engine,
            workers=self.config.workers, max_batch=self.config.max_batch,
            max_queue=self.config.max_queue, slo_ms=self.config.slo_ms,
            preloaded=len(self.registry), blas_threads=blas_threads(),
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop admitting, then drain (default) or cancel queued work."""
        if not self._started:
            return
        await self.scheduler.close(drain=drain)
        await self.pool.join()
        if self._exposition is not None:
            self._exposition.stop()
            self._exposition = None
        if self._snapshots is not None:
            await asyncio.to_thread(self._snapshots.stop)
        self._started = False
        self._release_blas()
        _log.info("server stopped", drained=drain)

    def _release_blas(self) -> None:
        if self._holds_blas:
            self._holds_blas = False
            SERVING_BLAS.release()

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -------------------------------------------------------------- serving

    async def submit(self, request: InferenceRequest) -> InferenceResponse:
        """Serve one request end to end (admission → batch → response).

        With ``ServeConfig.int8`` the server defaults every request onto
        the quantized plan flavor; requests can still opt in per-request
        via ``InferenceRequest.int8`` when the server default is float.
        """
        if not self._started:
            raise RuntimeError("server is not started")
        if self.config.int8:
            request.int8 = True
        future = await self.scheduler.submit(request)
        return await future

    async def submit_many(
        self, requests: List[InferenceRequest]
    ) -> List[InferenceResponse]:
        """Submit a burst concurrently; responses in request order."""
        if self.config.int8:
            for request in requests:
                request.int8 = True
        futures = [await self.scheduler.submit(r) for r in requests]
        return list(await asyncio.gather(*futures))

    def cancel_request(self, request_id: int) -> bool:
        """Cancel one queued request by id (the ``op: cancel`` wire op).

        Best-effort: ``True`` when the request was still queued (its slot
        is released and its future resolves CANCELLED), ``False`` when it
        already dispatched, completed, or never existed here.
        """
        return self.scheduler.cancel(request_id)

    # --------------------------------------------------------------- warm-up

    async def warmup(self, lanes: Optional[List[dict]] = None) -> dict:
        """Pre-build models and compile the hot-path plans (``op: warmup``).

        ``lanes`` is a list of wire-shaped lane specs (``{"net": ...,
        "variant": ..., "resolution": ..., "seed": ..., "int8": ...}``) —
        the lanes a fleet ring assigns this replica; ``None`` warms every
        preloaded model.  For each lane the model is built and the exact
        plan flavors the serving path will request are compiled (exact@1
        under ``bitexact``, folded at batch 1/``max_batch`` otherwise,
        the int8 plan — including its compile-time calibration — for int8
        lanes), and the cost model prices every batch size.  Runs
        off-loop; flips the warm-up gate so ``health()`` reports ready.
        Idempotent — re-warming a warm lane hits the plan cache and costs
        nothing.
        """
        specs = self._warm_lanes(lanes)
        start = time.perf_counter()

        def _warm() -> List[str]:
            warmed = []
            for key, int8 in specs:
                model = self.registry.get(key)
                for batch, kwargs in self._warm_shapes(int8):
                    model.plan_for(batch, **kwargs)
                self._price_batches(model)
                warmed.append(key.canonical() + ("|int8" if int8 else ""))
            return warmed

        warmed = await asyncio.to_thread(_warm)
        warmup_ms = (time.perf_counter() - start) * 1000.0
        self._warmed = True
        registry = get_registry()
        registry.counter("serve.warmups").inc()
        registry.gauge("serve.warmup.lanes").set(float(len(warmed)))
        registry.gauge("serve.warmup.ms").set(warmup_ms)
        _log.info("warmup complete", lanes=len(warmed),
                  ms=f"{warmup_ms:.1f}")
        return {"warmed": len(warmed), "lanes": warmed,
                "warmup_ms": round(warmup_ms, 3)}

    def _price_batches(self, model: RegisteredModel) -> None:
        """Price every batch size of ``model`` off the event loop.

        The scheduler sizes each batch with the cost model, and an
        unpriced size runs the analytical model inline: a replica's first
        batch would block its loop (and, in one process, every replica's)
        for tens of milliseconds.
        """
        for batch in range(1, self.config.max_batch + 1):
            self.cost_model.simulated_ms(model, batch)

    def _warm_lanes(self, lanes: Optional[List[dict]]) -> List[tuple]:
        """Normalize wire lane specs → ``[(ModelKey, int8), ...]``."""
        if lanes is None:
            return [(key, self.config.int8) for key in self.config.preload]
        specs = []
        for lane in lanes:
            key = ModelKey(
                network=lane.get("net") or lane["network"],
                variant=lane.get("variant"),
                resolution=int(lane.get("resolution", 64)),
                seed=int(lane.get("seed", 0)),
            )
            specs.append((key, bool(lane.get("int8", False)) or self.config.int8))
        return specs

    def _warm_shapes(self, int8: bool) -> List[tuple]:
        """The ``plan_for`` calls the hot path will make for one lane.

        Mirrors :func:`repro.serve.workers._run_graph`: nothing to
        compile off the graph engine, exact@1 under ``bitexact``, the
        folded plan at the batch sizes the batcher forms otherwise, and
        the quantized plan (PTQ calibration included) for int8 lanes.
        """
        if self.config.engine != "graph" or not self.config.compile:
            return []
        batches = sorted({1, self.config.max_batch})
        if int8:
            return [(b, {"flavor": "int8"}) for b in batches]
        if self.config.bitexact:
            return [(1, {"exact": True})]
        return [(b, {"exact": False}) for b in batches]

    # ---------------------------------------------------------------- stats

    def health(self) -> dict:
        """Liveness/readiness snapshot (the transport's ``health`` op).

        ``ready`` means the server accepts new work; during a graceful
        drain it flips to ``False`` while ``draining`` is ``True`` and
        queued requests are still being completed.  With
        ``require_warmup`` it also stays ``False`` — with ``warming:
        true`` — until :meth:`warmup` completed, so a fleet router holds
        traffic off a replica that would serve cold plans.
        ``blas_threads`` is the process's OpenBLAS thread count (1 while
        any server runs; ``None`` when numpy runs on another BLAS).
        """
        draining = self.scheduler.draining and (
            self._started or len(self.scheduler.store) > 0
        )
        warming = not self._warmed
        return {
            "status": "ok",
            "ready": self._started and not self.scheduler.closed
            and not warming,
            "warming": warming,
            "draining": draining,
            "queue_depth": len(self.scheduler.store),
            "workers_alive": self.pool.alive,
            "worker_restarts": self.pool.restarts,
            "models": [k.canonical() for k in self.registry.keys()],
            "breakers": self.pool.breaker_states(),
            "engine": self.config.engine,
            "resilience": self.config.resilience,
            "blas_threads": blas_threads(),
        }

    def stats(self) -> dict:
        """Snapshot of the serving metrics (counts, queue, batch sizes)."""
        registry = get_registry()
        out = {"queue_depth": len(self.scheduler.store),
               "models": [k.canonical() for k in self.registry.keys()]}
        for status in ("ok", "shed", "expired", "error", "cancelled"):
            metric = registry.get("serve.requests", status=status)
            out[f"requests_{status}"] = int(metric.value) if metric else 0
        batches = registry.get("serve.batches")
        out["batches"] = int(batches.value) if batches else 0
        sizes = registry.get("serve.batch.size")
        if sizes is not None and sizes.count:
            out["mean_batch"] = sizes.mean
            out["max_batch"] = sizes.max
        violations = registry.get("serve.slo.violations")
        out["slo_violations"] = int(violations.value) if violations else 0
        return out

    # ------------------------------------------------------------- telemetry

    @property
    def snapshots(self) -> Optional[SnapshotLoop]:
        """The live snapshot loop (``None`` with telemetry disabled).

        Kept after :meth:`stop` so post-run reports can still read the
        ring; only the sampling thread is stopped.
        """
        return self._snapshots

    @property
    def metrics_port(self) -> Optional[int]:
        """The bound exposition port (resolves ``metrics_port=0``)."""
        return self._exposition.port if self._exposition is not None else None

    def live(self, window_s: float = 10.0) -> LiveStats:
        """The derived live view (QPS, windowed percentiles, sheds...)."""
        if self._snapshots is None:
            return LiveStats()
        return derive_live(self._snapshots.ring, window_s=window_s)

    def alerts(self) -> list:
        """Current burn-rate alert states over the snapshot ring."""
        if self._snapshots is None:
            return []
        return evaluate_alerts(self._snapshots.ring, slo_ms=self.config.slo_ms)

    def telemetry_payload(self) -> dict:
        """JSON view served by ``op: metrics`` and ``GET /telemetry``."""
        return {
            "live": self.live().to_dict(),
            "alerts": [a.to_dict() for a in self.alerts()],
            "health": self.health(),
        }

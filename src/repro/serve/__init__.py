"""Async inference serving over the FuSeConv reproduction stack.

The subsystem that turns the offline toolkit into a request path:

* :mod:`repro.serve.request` — request/response model with deadlines and
  batch-compatibility keys;
* :mod:`repro.serve.registry` — preloaded, shared FuSe-transformed models;
* :mod:`repro.serve.costmodel` — batch pricing from the systolic-array
  analytical model (calibrated to wall clock);
* :mod:`repro.serve.batcher` / :mod:`repro.serve.scheduler` — dynamic
  batching with SLO-aware sizing, priority queues, admission control,
  load shedding and deadline expiry;
* :mod:`repro.serve.workers` — batch execution engines (``graph`` /
  ``array`` / ``analytical``);
* :mod:`repro.serve.server` — the :class:`InferenceServer` facade;
* :mod:`repro.serve.blas` — holds numpy's OpenBLAS pool at one thread
  while a server runs (its ``workers`` are the parallelism);
* :mod:`repro.serve.transport` — JSON-lines TCP front-end and client;
* :mod:`repro.serve.loadgen` — deterministic closed/open-loop load
  generation and the benchmark report;
* :mod:`repro.serve.resilience` — circuit breaker and retry policy;
* :mod:`repro.serve.top` — the live ``repro top`` terminal view over the
  ``op: metrics`` telemetry scrape.

Observability (``docs/observability.md``): every request carries a
:class:`~repro.obs.context.SpanContext` across the wire, so a loadgen run
or chaos drill (:mod:`repro.fleet.chaos`) exports one Perfetto timeline
of linked client→transport→admit→queue→batch→engine spans, and the
server feeds a snapshot ring that serves live QPS/latency/shed/burn-rate
telemetry.

See ``docs/serving.md`` for the architecture and an example session, and
``docs/robustness.md`` for the fault-injection and resilience story.
"""

from .batcher import Batch, Pending, PendingStore
from .costmodel import BatchCostModel
from .loadgen import (
    LoadReport,
    WorkloadSpec,
    build_requests,
    requests_digest,
    run_workload,
)
from .registry import ModelRegistry, RegisteredModel
from .request import (
    InferenceRequest,
    InferenceResponse,
    ModelKey,
    Status,
    make_input,
    output_digest,
)
from .resilience import CircuitBreaker, RetryPolicy
from .scheduler import SLOScheduler
from .server import InferenceServer, ServeConfig
from .top import render_frame, run_top
from .transport import (
    MAX_LINE_BYTES,
    RemoteClient,
    request_from_wire,
    response_to_wire,
    serve_tcp,
)
from .workers import ENGINES as SERVE_ENGINES
from .workers import WorkerPool, execute_batch

__all__ = [
    "Batch",
    "Pending",
    "PendingStore",
    "BatchCostModel",
    "LoadReport",
    "WorkloadSpec",
    "build_requests",
    "requests_digest",
    "run_workload",
    "ModelRegistry",
    "RegisteredModel",
    "InferenceRequest",
    "InferenceResponse",
    "ModelKey",
    "Status",
    "make_input",
    "output_digest",
    "SLOScheduler",
    "InferenceServer",
    "ServeConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "MAX_LINE_BYTES",
    "RemoteClient",
    "request_from_wire",
    "response_to_wire",
    "serve_tcp",
    "SERVE_ENGINES",
    "WorkerPool",
    "execute_batch",
    "render_frame",
    "run_top",
]

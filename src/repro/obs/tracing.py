"""Span-based wall-clock tracing with Chrome trace-event export.

A :class:`Tracer` records nested spans::

    from repro.obs import get_tracer

    tracer = get_tracer()
    with tracer.span("network.estimate", network="mobilenet_v2"):
        with tracer.span("gemm.fold", folds=12):
            ...

and serializes them as Chrome trace-event JSON (``ph: "X"`` complete
events), loadable in ``chrome://tracing`` and https://ui.perfetto.dev.
Nesting is implicit: Chrome/Perfetto stack events on the same thread by
time containment, so recording child spans before their parents (exit
order) renders correctly.

The tracer starts **disabled** and :meth:`Tracer.span` then returns a
shared no-op context manager — the cost of an instrumented call site is
one attribute check, which is what lets the simulator keep tracing hooks
in hot paths.  No gate bounds it; perfbench's per-layer
``trace.overhead_pct`` (ungated) measures traced against untraced runs.

**Bounded buffer**: the event store is a fixed-size ring
(``capacity`` events, default :data:`DEFAULT_TRACE_CAPACITY`).  A long
serving run can no longer grow memory without limit — once the ring is
full the oldest events are dropped and counted on the
``obs.trace_dropped`` counter, so an export that lost its head says so.

**Request tracing**: spans opened with ``new_trace=True`` (or under an
active :class:`~repro.obs.context.SpanContext`) carry
``trace_id``/``span_id``/``parent_span_id`` in their args, linking the
client→transport→queue→batch→engine chain of one serving request across
threads and processes (``docs/observability.md``).  :meth:`Tracer.complete`
records a span retroactively from explicit timestamps — how queue wait,
which only becomes known at batch dispatch, still gets a correctly-placed
slice.  :func:`span_topology` reduces an exported event list to the
timestamp-free parent/child structure that same-seed replay tests compare.

The cycle-level operand traces of :mod:`repro.systolic.trace` share this
export format via :meth:`TraceEvent.to_chrome_event` and can be merged
into a tracer with :meth:`Tracer.add_chrome_events`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .context import (
    SpanContext,
    _reset_context,
    _set_context,
    current_span_context,
    new_span_id,
    new_trace_id,
)

#: Default ring capacity.  Sized so a trace-smoke sweep (hundreds of
#: thousands of fold spans) fits, while an unattended serving run stays
#: bounded at tens of MB of event dicts.
DEFAULT_TRACE_CAPACITY = 262_144


class _NullSpan:
    """Shared no-op span used while tracing is disabled."""

    __slots__ = ()

    #: Mirrors :attr:`Span.context` so callers can chain unconditionally.
    context = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Discard late-bound span arguments."""


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; records a complete ("X") event when it exits.

    When the span opens under an active :class:`SpanContext` (or with an
    explicit ``ctx``/``new_trace``), it joins that trace: it gets its own
    ``span_id``, remembers its parent, and publishes its context for the
    duration of the block so children link up automatically.
    """

    __slots__ = ("_tracer", "name", "category", "args", "_start_ns",
                 "context", "_parent_id", "_explicit_ctx", "_new_trace",
                 "_token")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, object],
                 ctx: Optional[SpanContext] = None,
                 new_trace: bool = False) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self._start_ns = 0
        self.context: Optional[SpanContext] = None
        self._parent_id: Optional[str] = None
        self._explicit_ctx = ctx
        self._new_trace = new_trace
        self._token = None

    def set(self, **args) -> None:
        """Attach arguments discovered while the span is running."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        self._start_ns = time.perf_counter_ns()
        parent = self._explicit_ctx
        if parent is None and not self._new_trace:
            parent = current_span_context()
        if self._new_trace:
            self.context = SpanContext(new_trace_id(), new_span_id())
        elif parent is not None:
            self.context = SpanContext(parent.trace_id, new_span_id())
            self._parent_id = parent.span_id
        if self.context is not None:
            self._token = _set_context(self.context)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        if self._token is not None:
            _reset_context(self._token)
            self._token = None
        if exc_type is not None:
            # Exception safety: the span still closes, flagged with the error.
            self.args["error"] = exc_type.__name__
        self._tracer._record(self, end_ns)
        return False  # never swallow the exception


def _context_args(args: Dict[str, object], ctx: SpanContext,
                  parent_id: Optional[str]) -> Dict[str, object]:
    """Event args extended with the trace-linking identifiers."""
    out = dict(args)
    out["trace_id"] = ctx.trace_id
    out["span_id"] = ctx.span_id
    if parent_id is not None:
        out["parent_span_id"] = parent_id
    return out


class Tracer:
    """Collects spans and instant events; exports Chrome trace format."""

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self._enabled = False
        self.capacity = capacity
        self._events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._dropped = 0
        self._lock = threading.Lock()
        self._epoch_ns = time.perf_counter_ns()
        self._tids: Dict[int, int] = {}

    # ------------------------------------------------------------- lifecycle

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def dropped(self) -> int:
        """Events evicted from the ring since the last :meth:`clear`."""
        return self._dropped

    def enable(self) -> None:
        """Start recording; resets the time origin (not the event buffer)."""
        if not self._events:
            self._epoch_ns = time.perf_counter_ns()
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._tids.clear()
            self._dropped = 0
        self._epoch_ns = time.perf_counter_ns()

    def __len__(self) -> int:
        return len(self._events)

    # -------------------------------------------------------------- recording

    def span(self, name: str, category: str = "repro",
             ctx: Optional[SpanContext] = None,
             new_trace: bool = False, **args):
        """A context manager timing one nested span (no-op when disabled).

        ``ctx`` explicitly parents the span (overriding the ambient
        context); ``new_trace=True`` starts a fresh trace — the span
        becomes a request root regardless of what is active.
        """
        if not self._enabled:
            return _NULL_SPAN
        return Span(self, name, category, dict(args), ctx=ctx,
                    new_trace=new_trace)

    def complete(self, name: str, start_ns: int, end_ns: int,
                 category: str = "repro",
                 ctx: Optional[SpanContext] = None,
                 new_trace: bool = False,
                 **args) -> Optional[SpanContext]:
        """Record a span retroactively from explicit ``perf_counter_ns``
        timestamps; returns the new span's context for chaining children.

        This is how stages whose duration is only known after the fact
        (queue wait measured at batch dispatch, per-request slices of a
        shared batch execution) still land as correctly-placed slices.
        """
        if not self._enabled:
            return None
        parent = ctx if ctx is not None else (
            None if new_trace else current_span_context()
        )
        context: Optional[SpanContext] = None
        parent_id: Optional[str] = None
        if new_trace:
            context = SpanContext(new_trace_id(), new_span_id())
        elif parent is not None:
            context = SpanContext(parent.trace_id, new_span_id())
            parent_id = parent.span_id
        event_args = dict(args)
        if context is not None:
            event_args = _context_args(event_args, context, parent_id)
        self._append({
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": (start_ns - self._epoch_ns) / 1e3,
            "dur": max(0.0, (end_ns - start_ns) / 1e3),
            "pid": 0,
            "tid": self._tid(),
            "args": event_args,
        })
        return context

    def instant(self, name: str, category: str = "repro",
                ctx: Optional[SpanContext] = None, **args) -> None:
        """Record a zero-duration point event."""
        if not self._enabled:
            return
        now = time.perf_counter_ns()
        parent = ctx if ctx is not None else current_span_context()
        event_args = dict(args)
        if parent is not None:
            event_args["trace_id"] = parent.trace_id
            event_args["parent_span_id"] = parent.span_id
        self._append({
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "t",
            "ts": (now - self._epoch_ns) / 1e3,
            "pid": 0,
            "tid": self._tid(),
            "args": event_args,
        })

    def add_chrome_events(self, events: Iterable[Dict[str, object]]) -> None:
        """Merge pre-built Chrome trace events (e.g. cycle-level operand
        traces via :meth:`repro.systolic.trace.TraceEvent.to_chrome_event`)."""
        incoming = list(events)
        with self._lock:
            overflow = len(self._events) + len(incoming) - self.capacity
            if overflow > 0:
                self._count_dropped(overflow)
            self._events.extend(incoming)

    def _record(self, span: Span, end_ns: int) -> None:
        if not self._enabled:
            return  # disabled while the span was open: drop it
        args = span.args
        if span.context is not None:
            args = _context_args(args, span.context, span._parent_id)
        self._append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (span._start_ns - self._epoch_ns) / 1e3,
            "dur": (end_ns - span._start_ns) / 1e3,
            "pid": 0,
            "tid": self._tid(),
            "args": args,
        })

    def _append(self, event: Dict[str, object]) -> None:
        with self._lock:
            if len(self._events) >= self.capacity:
                self._count_dropped(1)
            self._events.append(event)

    def _count_dropped(self, count: int) -> None:
        # Called under self._lock.  The counter lives in the metrics
        # registry so exports and live telemetry both see the loss.
        self._dropped += count
        from .metrics import get_registry  # local: avoid import-order knots

        get_registry().counter("obs.trace_dropped").inc(count)

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # ---------------------------------------------------------------- export

    def events(self) -> List[Dict[str, object]]:
        """A snapshot copy of the recorded events."""
        with self._lock:
            return list(self._events)

    def to_chrome(self, other_data: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """The Chrome trace-event JSON object (``{"traceEvents": [...]}``)."""
        payload: Dict[str, object] = {
            "traceEvents": self.events(),
            "displayTimeUnit": "ms",
        }
        if other_data:
            payload["otherData"] = other_data
        return payload


# ------------------------------------------------------------- trace analysis

def span_topology(
    events: Iterable[Dict[str, object]],
) -> List[Tuple[Tuple[str, Optional[str]], ...]]:
    """The timestamp- and id-free shape of every trace in an event list.

    Each trace reduces to a sorted tuple of ``(span_name, parent_span_name)``
    edges (roots have parent ``None``); the result is the sorted list of
    those shapes across traces.  Two same-seed serving runs must produce
    *equal* topologies even though every id and timestamp differs — the
    replay-determinism contract of ``tests/serve/test_trace_propagation.py``.
    """
    names: Dict[str, str] = {}
    spans: List[Dict[str, object]] = []
    for event in events:
        args = event.get("args") or {}
        span_id = args.get("span_id")
        if event.get("ph") == "X" and isinstance(span_id, str):
            names[span_id] = str(event.get("name"))
            spans.append(event)
    traces: Dict[str, List[Tuple[str, Optional[str]]]] = {}
    for event in spans:
        args = event["args"]
        parent = args.get("parent_span_id")
        traces.setdefault(str(args["trace_id"]), []).append((
            str(event.get("name")),
            names.get(parent) if isinstance(parent, str) else None,
        ))
    return sorted(
        tuple(sorted(edges, key=lambda e: (e[0], e[1] or "")))
        for edges in traces.values()
    )


def trace_chains(
    events: Iterable[Dict[str, object]],
) -> Dict[str, List[Dict[str, object]]]:
    """Group context-carrying span events by ``trace_id``.

    The chaos completeness check walks this: every answered request's
    trace must contain the full client→server→engine stage set.
    """
    chains: Dict[str, List[Dict[str, object]]] = {}
    for event in events:
        args = event.get("args") or {}
        trace_id = args.get("trace_id")
        if isinstance(trace_id, str):
            chains.setdefault(trace_id, []).append(event)
    return chains


#: Process-wide default tracer (what the CLI exports via ``--trace-out``).
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default :class:`Tracer`."""
    return _TRACER

"""Spans recorded from the benchmark's own files.

The traced run wraps calls into each layer's public functions: an
:class:`Instrument` replaces the attribute a caller looks up (for
example ``repro.serve.workers.execute_batch``, not only its defining
module, because ``from x import y`` binds early) with a wrapper that
records a span, and puts every original back on exit.  Spans stay in
memory in a :class:`SpanRecorder` and are written out once, as
Chrome-trace JSON, when the benchmark ends.

A span carries its name, start, end, parent span and — where the layer
knows it — the request id that every span of one request shares.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.export import TRACE_SCHEMA, run_header

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: Optional[int]
    start_ns: int
    phase: str
    request_id: Optional[int] = None
    end_ns: int = 0
    tid: int = 0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class SpanRecorder:
    """In-memory span store; ``phase`` labels what the run is doing."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: request id → its client span, so server-side spans of the same
        #: request name it as their parent across the wire.
        self.roots: Dict[int, int] = {}

    def open(self, name: str, request_id: Optional[int] = None) -> Span:
        """A span whose parent is the innermost open span of this context
        or, failing that, the root span of the same request."""
        current = _current.get()
        parent_id = current.span_id if current is not None else None
        if parent_id is None and request_id is not None:
            parent_id = self.roots.get(request_id)
        with self._lock:
            span_id = next(self._ids)
            if parent_id is None and request_id is not None:
                self.roots[request_id] = span_id
        return Span(name, span_id, parent_id, time.perf_counter_ns(),
                    self.phase, request_id, tid=threading.get_ident())

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, **args) -> Iterator[Span]:
        """A span around the benchmark's own calls."""
        span = self.open(name)
        span.args.update(args)
        token = _current.set(span)
        try:
            yield span
        finally:
            _current.reset(token)
            self.close(span)

    def named(self, name: str, phase: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans if s.name == name
                and (phase is None or s.phase == phase)]

    def to_chrome(self, header: Dict[str, object]) -> Dict[str, object]:
        """Chrome trace-event JSON that ``python -m repro.obs.validate``
        accepts (``otherData`` carries the repro trace schema header)."""
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        origin = min((s.start_ns for s in self.spans), default=0)
        for s in sorted(self.spans, key=lambda s: s.start_ns):
            args = {"span_id": s.span_id, "parent_id": s.parent_id,
                    "request_id": s.request_id, "phase": s.phase}
            args.update(s.args)
            events.append({
                "name": s.name, "cat": "perfbench", "ph": "X",
                "ts": (s.start_ns - origin) / 1000.0,
                "dur": (s.end_ns - s.start_ns) / 1000.0,
                "pid": pid, "tid": tids.setdefault(s.tid, len(tids) + 1),
                "args": args,
            })
        other = {"schema": TRACE_SCHEMA}
        other.update(run_header(extra=header))
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}

    def write(self, path: str, header: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_chrome(header), handle, default=str)


def _resolve(owner: str):
    """``module`` or ``module:Class`` → the object to patch."""
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _lookup(obj, attr: str):
    """The attribute as stored (a class's own function, not a bound one)."""
    return obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)


class Instrument:
    """Install span wrappers on entry; restore every original on exit.

    ``request_id`` maps a call's arguments to the request id (or
    ``None``); ``annotate`` maps ``(args, kwargs, result)`` to extra span
    args.  A wrapper called while a span of the same name is already the
    innermost one records nothing, so a layer's internal re-entry (one
    public method calling another) is not counted twice.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._plan: List[Tuple[str, str, str, Optional[Callable],
                               Optional[Callable]]] = []
        self._saved: List[Tuple[object, str, object]] = []

    def add(self, owner: str, attr: str, name: str,
            request_id: Optional[Callable] = None,
            annotate: Optional[Callable] = None) -> None:
        self._plan.append((owner, attr, name, request_id, annotate))

    def targets(self) -> List[Tuple[object, str]]:
        """Every (owner, attribute) this instrument patches."""
        return [(_resolve(owner), attr) for owner, attr, *_ in self._plan]

    def __enter__(self) -> "Instrument":
        try:
            for (obj, attr), (_, _, name, rid, annotate) in zip(
                    self.targets(), self._plan):
                original = _lookup(obj, attr)
                self._saved.append((obj, attr, original))
                setattr(obj, attr, self._wrap(original, name, rid, annotate))
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def _wrap(self, fn, name, rid, annotate):
        recorder = self.recorder

        def start(args, kwargs):
            current = _current.get()
            if current is not None and current.name == name:
                return None, None
            span = recorder.open(name, rid(args, kwargs) if rid else None)
            return span, _current.set(span)

        def finish(span, token, args, kwargs, result):
            _current.reset(token)
            if annotate is not None:
                span.args.update(annotate(args, kwargs, result))
            recorder.close(span)

        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span, token = start(args, kwargs)
                if span is None:
                    return await fn(*args, **kwargs)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    finish(span, token, args, kwargs, result)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, token = start(args, kwargs)
            if span is None:
                return fn(*args, **kwargs)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                finish(span, token, args, kwargs, result)
        return wrapper

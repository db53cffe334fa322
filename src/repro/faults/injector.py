"""The active half of fault injection: evaluating fault points at runtime.

Instrumentation sites are one call:

* :func:`inject` — generic sites; raises :class:`InjectedFault`, sleeps,
  or kills the process according to the matching spec;
* :func:`should_fire` — custom sites (disk-cache corruption, transport
  garbage) that implement the misbehavior themselves and only need the
  seeded firing decision.

With no plan installed, both cost one module-global check and an early
return.

A plan is installed explicitly (:func:`install_plan`, used by chaos mode
and tests) or picked up once from ``$REPRO_FAULTS`` on the first fault
point evaluated in the process.  Firing decisions are deterministic: each
spec owns a :class:`random.Random` seeded with ``(plan seed, point, spec
index)``, and per-spec evaluation/firing counters are kept under a lock,
so the schedule replays exactly across runs (see the determinism contract
in :mod:`repro.faults.plan`).

Every firing increments ``faults.injected.<point>`` on the default
metrics registry and emits a structured log line, so chaos runs leave a
complete audit trail in ``--metrics-out`` sidecars.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional

from ..obs import get_logger, get_registry
from .plan import FaultPlan, FaultSpec

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "install_plan",
    "clear_plan",
    "current_injector",
    "inject",
    "should_fire",
]

_log = get_logger("faults")


class InjectedFault(RuntimeError):
    """Raised by an ``error``-kind firing; carries the fault point name."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically, thread-safely."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._specs: Dict[str, List[tuple]] = {}
        for index, spec in enumerate(plan.faults):
            rng = random.Random(f"{plan.seed}:{spec.point}:{index}")
            self._specs.setdefault(spec.point, []).append((index, spec, rng))
        self._evals: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------ evaluation

    def should_fire(self, point: str,
                    tag: Optional[str] = None) -> Optional[FaultSpec]:
        """Evaluate one fault point; the firing spec, or ``None``.

        At most one spec fires per evaluation (first match in plan order);
        every spec for the point still consumes one draw, keeping the
        sequence deterministic regardless of which spec fires.  A spec
        carrying a ``tag`` only fires when the site's ``tag`` matches —
        mismatched evaluations still consume their draw (and count toward
        ``after``), so targeting one replica of a fleet does not shift
        the schedule of any other spec.
        """
        specs = self._specs.get(point)
        if not specs:
            return None
        winner: Optional[FaultSpec] = None
        with self._lock:
            for index, spec, rng in specs:
                evals = self._evals.get(index, 0) + 1
                self._evals[index] = evals
                draw = rng.random()  # always drawn: keeps sequences aligned
                if winner is not None:
                    continue
                if spec.tag is not None and spec.tag != tag:
                    continue
                if evals <= spec.after:
                    continue
                if (spec.max_fires is not None
                        and self._fired.get(index, 0) >= spec.max_fires):
                    continue
                if spec.probability < 1.0 and draw >= spec.probability:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                winner = spec
        if winner is not None:
            get_registry().counter(f"faults.injected.{point}").inc()
            _log.info("fault fired", point=point, kind=winner.kind,
                      fired=self.fired(point))
        return winner

    # ------------------------------------------------------- introspection

    def fired(self, point: Optional[str] = None) -> int:
        """Total firings, for one point or across the plan."""
        with self._lock:
            if point is None:
                return sum(self._fired.values())
            return sum(
                self._fired.get(index, 0)
                for index, _, _ in self._specs.get(point, [])
            )

    def snapshot(self) -> Dict[str, dict]:
        """Per-point evaluation/firing counts (diagnostics, tests)."""
        out: Dict[str, dict] = {}
        with self._lock:
            for point, specs in self._specs.items():
                out[point] = {
                    "evals": sum(self._evals.get(i, 0) for i, _, _ in specs),
                    "fired": sum(self._fired.get(i, 0) for i, _, _ in specs),
                }
        return out


# ----------------------------------------------------------- process state

_lock = threading.Lock()
_injector: Optional[FaultInjector] = None
_env_checked = False


def install_plan(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Install (or, with ``None``, clear) the process-wide fault plan."""
    global _injector, _env_checked
    with _lock:
        _env_checked = True  # an explicit install overrides $REPRO_FAULTS
        _injector = FaultInjector(plan) if plan is not None else None
        return _injector


def clear_plan() -> None:
    """Remove the installed plan; fault points become no-ops again."""
    install_plan(None)


def current_injector() -> Optional[FaultInjector]:
    """The active injector (resolving ``$REPRO_FAULTS`` once), or ``None``."""
    global _injector, _env_checked
    if _env_checked:
        return _injector
    with _lock:
        if not _env_checked:
            _env_checked = True
            if _injector is None:
                plan = FaultPlan.from_env()
                if plan is not None:
                    _injector = FaultInjector(plan)
                    _log.info("fault plan loaded from environment",
                              points=",".join(plan.points()),
                              fingerprint=plan.fingerprint()[:12])
    return _injector


def should_fire(point: str, tag: Optional[str] = None) -> Optional[FaultSpec]:
    """Custom-site evaluation: the firing spec, or ``None`` (the fast path)."""
    injector = current_injector()
    if injector is None:
        return None
    return injector.should_fire(point, tag=tag)


def inject(point: str, tag: Optional[str] = None) -> None:
    """Generic-site evaluation: act out the firing spec, if any.

    ``error`` raises :class:`InjectedFault`, ``delay`` and ``stall``
    sleep the spec's ``delay_ms`` (blocking — async sites evaluate
    :func:`should_fire` themselves and ``await asyncio.sleep``), ``kill``
    exits the process (for process-pool worker death).  No-op when no
    plan is installed or nothing fires.
    """
    spec = should_fire(point, tag=tag)
    if spec is None:
        return
    if spec.kind in ("delay", "stall"):
        time.sleep(spec.delay_ms / 1000.0)
    elif spec.kind == "kill":
        os._exit(spec.exit_code)
    else:
        raise InjectedFault(point)

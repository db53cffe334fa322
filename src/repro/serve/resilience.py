"""Resilience primitives shared across the serving stack.

* :class:`CircuitBreaker` — the classic three-state breaker guarding the
  expensive primary execution path of one model: ``closed`` (normal),
  ``open`` (after ``threshold`` consecutive failures; primaries are
  short-circuited straight to the degraded analytical path for
  ``cooldown_s``), ``half-open`` (one probe is let through; success
  closes, failure re-opens).  State is published as the
  ``resilience.breaker_state`` gauge (0 = closed, 0.5 = half-open,
  1 = open) labelled by model.
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  seeded full-jitter, used by the transport client.  The jitter RNG is
  seeded so two runs of the same deterministic workload back off
  identically.

Both are dependency-free and thread-safe; the serving layer wires them in
(:mod:`repro.serve.workers`, :mod:`repro.serve.transport`) and the
``serve`` chaos drill (:mod:`repro.fleet.chaos`) exercises them under
injected faults.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional

from ..obs import get_registry

__all__ = ["CircuitBreaker", "RetryPolicy", "BREAKER_STATES"]

#: Gauge encoding of breaker states.
BREAKER_STATES = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


class CircuitBreaker:
    """Consecutive-failure breaker with cooldown and half-open probing."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        label: Optional[str] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.label = label
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- state

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half-open`` (cooldown-aware)."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = "half-open"
            self._probing = False
        return self._state

    def allow(self) -> bool:
        """May the primary path run?  ``False`` = short-circuit to degraded.

        In half-open state exactly one caller gets ``True`` (the probe)
        until :meth:`record` settles the outcome.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record(self, ok: bool) -> None:
        """Fold one primary-path outcome into the breaker."""
        with self._lock:
            state = self._state_locked()
            if ok:
                self._failures = 0
                if state != "closed":
                    self._state = "closed"
                    self._probing = False
            else:
                self._failures += 1
                if state == "half-open" or self._failures >= self.threshold:
                    if self._state != "open":
                        get_registry().counter(
                            "resilience.breaker_opens",
                            **({"model": self.label} if self.label else {}),
                        ).inc()
                    self._state = "open"
                    self._opened_at = self._clock()
                    self._probing = False
        self.publish()

    def publish(self) -> None:
        """Write the current state to the ``resilience.breaker_state`` gauge."""
        labels = {"model": self.label} if self.label else {}
        get_registry().gauge("resilience.breaker_state", **labels).set(
            BREAKER_STATES[self.state]
        )


class RetryPolicy:
    """Bounded exponential backoff with seeded full-jitter.

    ``delay(attempt)`` for attempt ``1..retries`` is uniform in
    ``(0, min(backoff_max_ms, backoff_ms * 2**(attempt-1))]`` — the
    standard full-jitter scheme, with a deterministic RNG so chaos runs
    replay identical backoff sequences.
    """

    def __init__(
        self,
        retries: int = 3,
        backoff_ms: float = 50.0,
        backoff_max_ms: float = 2000.0,
        seed: int = 0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff_ms = backoff_ms
        self.backoff_max_ms = backoff_max_ms
        self._rng = random.Random(f"retry:{seed}")
        self._lock = threading.Lock()

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), in seconds."""
        ceiling = min(self.backoff_max_ms, self.backoff_ms * (2 ** (attempt - 1)))
        with self._lock:
            return (self._rng.random() * ceiling) / 1000.0

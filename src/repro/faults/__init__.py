"""Deterministic, seeded fault injection for the serving/simulation stack.

The framework has two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`, the
  declarative description of which registered fault points
  (:data:`FAULT_POINTS`) misbehave and when, loadable from code, a JSON
  file, or the ``REPRO_FAULTS`` environment variable;
* :mod:`repro.faults.injector` — the runtime: :func:`inject` /
  :func:`should_fire` calls at instrumented sites, which are no-ops until
  a plan is installed (:func:`install_plan`).

The chaos drills (``repro loadgen --chaos`` / ``--gray``,
:mod:`repro.fleet.chaos`) drive a seeded plan against live servers and
assert the resilience machinery — retries, circuit breaking, the
degradation chain, worker restarts, hedging — holds its bounds.  See
``docs/robustness.md``.
"""

from .injector import (
    FaultInjector,
    InjectedFault,
    clear_plan,
    current_injector,
    inject,
    install_plan,
    should_fire,
)
from .plan import FAULT_POINTS, FAULTS_ENV, KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV",
    "KINDS",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "clear_plan",
    "current_injector",
    "inject",
    "install_plan",
    "should_fire",
]

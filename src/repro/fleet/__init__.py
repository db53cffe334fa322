"""repro.fleet — the distributed serving fleet above :mod:`repro.serve`.

One node (PRs 3–7) batches, schedules, compiles, and traces; this
package scales it out: N :class:`~repro.serve.server.InferenceServer`
replicas behind one :class:`~repro.fleet.router.FleetRouter` frontend
speaking the same JSON-lines wire protocol, with consistent-hash
placement (:mod:`~repro.fleet.placement`), replica health tracking
(:mod:`~repro.fleet.health`), lifecycle supervision
(:mod:`~repro.fleet.supervisor`), cost-model-priced autoscaling
(:mod:`~repro.fleet.autoscaler`) and the chaos drills
(:mod:`~repro.fleet.chaos`).  ``docs/fleet.md`` is the narrative tour.
"""

from .autoscaler import (
    Autoscaler,
    AutoscalerPolicy,
    FleetSnapshot,
    ReplicaSample,
    ScaleDecision,
    price_capacity_qps,
)
from .chaos import GRAY, KILL, SERVE, DrillReport, Scenario, run_drill
from .health import ReplicaEndpoint, ReplicaHealth, ReplicaState
from .placement import DEFAULT_VNODES, HashRing
from .router import FleetRouter, ReplicaLink, RouterConfig
from .supervisor import FleetSupervisor, ReplicaHandle, free_port
from .warmup import assigned_lanes, lane_specs, warm_replica

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "FleetSnapshot",
    "ReplicaSample",
    "ScaleDecision",
    "price_capacity_qps",
    "GRAY",
    "KILL",
    "SERVE",
    "DrillReport",
    "Scenario",
    "run_drill",
    "ReplicaEndpoint",
    "ReplicaHealth",
    "ReplicaState",
    "DEFAULT_VNODES",
    "HashRing",
    "FleetRouter",
    "ReplicaLink",
    "RouterConfig",
    "FleetSupervisor",
    "ReplicaHandle",
    "free_port",
    "assigned_lanes",
    "lane_specs",
    "warm_replica",
]

"""Heterogeneous gateway fleets and mid-trace churn dynamics.

``repro.fleet`` makes the simulated population *dynamic and mixed*:

* :class:`~repro.fleet.profile.FleetProfile` assigns per-gateway
  :class:`~repro.power.models.DevicePower` generations (legacy 9 W,
  efficient 5 W, multi-level deep-sleep devices with their own wake
  durations), and
* :class:`~repro.fleet.churn.ChurnTimeline` schedules mid-trace events —
  gateway power-on/decommission/transient failure and client
  subscribe/unsubscribe — executed by the kernel at exact instants.

The homogeneous default (:data:`~repro.fleet.profile.HOMOGENEOUS` plus
:data:`~repro.fleet.churn.EMPTY_TIMELINE`) reproduces the static uniform
deployment of the paper bit for bit.
"""

from repro.fleet.churn import (
    CHURN_PATTERNS,
    ChurnAction,
    ChurnEvent,
    ChurnKind,
    ChurnTimeline,
    EMPTY_TIMELINE,
    build_churn,
    churn_pattern_names,
)
from repro.fleet.profile import (
    FLEETS,
    GENERATIONS,
    FleetProfile,
    GatewayGeneration,
    HOMOGENEOUS,
    fleet,
    register_fleet,
    register_generation,
)

__all__ = [
    "CHURN_PATTERNS",
    "ChurnAction",
    "ChurnEvent",
    "ChurnKind",
    "ChurnTimeline",
    "EMPTY_TIMELINE",
    "build_churn",
    "churn_pattern_names",
    "FLEETS",
    "GENERATIONS",
    "FleetProfile",
    "GatewayGeneration",
    "HOMOGENEOUS",
    "fleet",
    "register_fleet",
    "register_generation",
]

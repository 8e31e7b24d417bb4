"""Online equilibrium engine: churn-resilient service mode.

The package that keeps a NASH equilibrium alive under churn.  See
:mod:`repro.engine.service` for the loop itself, docs/OPERATIONS.md for
the operational contract, :mod:`repro.engine.dynamics` for the
snapshot-driven re-balancing loop built on it, and
:mod:`repro.workloads.traces` for churn trace generators.
"""

from repro.engine.events import (
    CapacityChange,
    ChurnEpoch,
    ChurnEvent,
    ComputerFailure,
    ComputerReopen,
    PhiDrift,
    SetDemand,
    SetUtilization,
    UserArrival,
    UserDeparture,
    as_epoch,
    event_kind,
)
from repro.engine.dynamics import (
    DynamicsResult,
    EpisodeResult,
    run_dynamic_balancing,
)
from repro.engine.reequilibrate import ReequilibrationOutcome, converge_bounded
from repro.engine.service import (
    EngineConfig,
    EngineRun,
    EpochReport,
    EpochStatus,
    OnlineEquilibriumEngine,
    WarmMode,
)
from repro.engine.sla import SLAAccountant, SLAPolicy, SLAReport
from repro.engine.state import FleetState

__all__ = [
    "CapacityChange",
    "ChurnEpoch",
    "ChurnEvent",
    "ComputerFailure",
    "ComputerReopen",
    "DynamicsResult",
    "EngineConfig",
    "EngineRun",
    "EpochReport",
    "EpochStatus",
    "EpisodeResult",
    "FleetState",
    "OnlineEquilibriumEngine",
    "PhiDrift",
    "ReequilibrationOutcome",
    "SLAAccountant",
    "SLAPolicy",
    "SLAReport",
    "SetDemand",
    "SetUtilization",
    "UserArrival",
    "UserDeparture",
    "WarmMode",
    "as_epoch",
    "converge_bounded",
    "event_kind",
    "run_dynamic_balancing",
]

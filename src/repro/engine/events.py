"""Typed churn events — the input vocabulary of the online engine.

A long-running deployment is not a sequence of full system snapshots but
a stream of *changes*: users arrive and depart, their demand drifts,
computers fail, reopen, or are re-provisioned.  Each change is one
frozen, validated event; an **epoch** is a tuple of events applied
atomically before the engine re-equilibrates once (so a simultaneous
failure + flash crowd is a single epoch with two events).

Computers are referenced by their index in the *nominal* fleet — fleet
membership is fixed for the lifetime of an engine, only the online mask
and service rates change — while users are referenced by name, because
the user population grows and shrinks and positional indices would
shift under churn.

The trace generators in :mod:`repro.workloads.traces` compose these
events into diurnal / failure / flash-crowd scenarios; see
docs/OPERATIONS.md for the trace format contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "CapacityChange",
    "ChurnEpoch",
    "ChurnEvent",
    "ComputerFailure",
    "ComputerReopen",
    "PhiDrift",
    "SetDemand",
    "SetUtilization",
    "UserArrival",
    "UserDeparture",
    "as_epoch",
    "event_kind",
]


def _check_rates(rates: tuple[float, ...], what: str) -> None:
    if not rates:
        raise ValueError(f"{what} must name at least one user")
    if any(rate <= 0.0 for rate in rates):
        raise ValueError(f"{what} must be strictly positive")


@dataclass(frozen=True, slots=True)
class UserArrival:
    """New users join with the given job-generation rates ``phi``.

    ``names`` (optional) must match ``arrival_rates`` in length; unnamed
    arrivals are auto-named by the engine state.
    """

    arrival_rates: tuple[float, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_rates(self.arrival_rates, "arrival rates")
        if self.names and len(self.names) != len(self.arrival_rates):
            raise ValueError("names must match arrival_rates in length")


@dataclass(frozen=True, slots=True)
class UserDeparture:
    """Users leave the system, by name or most-recent-first count.

    Exactly one of ``names``/``count`` selects the departing users:
    named departures must reference existing users; ``count`` removes
    the ``count`` most recently arrived users (clamped to the current
    population, so a departure racing an earlier departure degrades to
    a no-op rather than crashing the loop).
    """

    names: tuple[str, ...] = ()
    count: int = 0

    def __post_init__(self) -> None:
        if bool(self.names) == bool(self.count):
            raise ValueError("specify exactly one of names or count")
        if self.count < 0:
            raise ValueError("count must be nonnegative")


@dataclass(frozen=True, slots=True)
class PhiDrift:
    """Multiplicative drift of user demand.

    ``factor`` scales every user's rate; ``per_user`` additionally
    scales named users (applied after the global factor).
    """

    factor: float = 1.0
    per_user: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.factor <= 0.0:
            raise ValueError("drift factor must be strictly positive")
        if any(f <= 0.0 for _, f in self.per_user):
            raise ValueError("per-user drift factors must be strictly positive")


@dataclass(frozen=True, slots=True)
class SetDemand:
    """Wholesale replacement of the user population.

    Used by the snapshot-driven :func:`repro.engine.dynamics.run_dynamic_balancing`
    wrapper; churn traces normally prefer the granular events.
    """

    arrival_rates: tuple[float, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_rates(self.arrival_rates, "arrival rates")
        if self.names and len(self.names) != len(self.arrival_rates):
            raise ValueError("names must match arrival_rates in length")


@dataclass(frozen=True, slots=True)
class SetUtilization:
    """Rescale total demand to ``utilization`` times the *nominal* capacity.

    Nominal capacity is the sum of all computers' current service rates,
    offline ones included — a diurnal load curve does not dip because a
    machine failed, so a failure raises the utilization the survivors
    actually see.  Relative user shares are preserved; with no users the
    event is a no-op.
    """

    utilization: float

    def __post_init__(self) -> None:
        if not 0.0 < self.utilization < 1.0:
            raise ValueError("utilization must lie strictly inside (0, 1)")


@dataclass(frozen=True, slots=True)
class ComputerFailure:
    """Computer ``computer`` (nominal fleet index) goes offline.

    Idempotent: failing an already-offline computer is a no-op.
    """

    computer: int

    def __post_init__(self) -> None:
        if self.computer < 0:
            raise ValueError("computer index must be nonnegative")


@dataclass(frozen=True, slots=True)
class ComputerReopen:
    """Computer ``computer`` comes back online (idempotent)."""

    computer: int

    def __post_init__(self) -> None:
        if self.computer < 0:
            raise ValueError("computer index must be nonnegative")


@dataclass(frozen=True, slots=True)
class CapacityChange:
    """Computer ``computer`` is re-provisioned to ``service_rate`` jobs/s."""

    computer: int
    service_rate: float

    def __post_init__(self) -> None:
        if self.computer < 0:
            raise ValueError("computer index must be nonnegative")
        if self.service_rate <= 0.0:
            raise ValueError("service rate must be strictly positive")


ChurnEvent = Union[
    UserArrival,
    UserDeparture,
    PhiDrift,
    SetDemand,
    SetUtilization,
    ComputerFailure,
    ComputerReopen,
    CapacityChange,
]

#: One engine epoch: events applied atomically, then one re-equilibration.
ChurnEpoch = tuple[ChurnEvent, ...]

_EVENT_KINDS: dict[type, str] = {
    UserArrival: "user_arrival",
    UserDeparture: "user_departure",
    PhiDrift: "phi_drift",
    SetDemand: "set_demand",
    SetUtilization: "set_utilization",
    ComputerFailure: "computer_failure",
    ComputerReopen: "computer_reopen",
    CapacityChange: "capacity_change",
}


def event_kind(event: ChurnEvent) -> str:
    """Stable snake_case label of an event (telemetry field values)."""
    return _EVENT_KINDS[type(event)]


def as_epoch(events: ChurnEvent | ChurnEpoch) -> ChurnEpoch:
    """Normalize a single event or an event tuple into one epoch."""
    if isinstance(events, tuple):
        for event in events:
            if type(event) not in _EVENT_KINDS:
                raise TypeError(f"not a churn event: {event!r}")
        return events
    if type(events) in _EVENT_KINDS:
        return (events,)
    raise TypeError(f"not a churn event or epoch: {events!r}")

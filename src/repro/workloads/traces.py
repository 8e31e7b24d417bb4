"""Synthetic time-varying workload traces.

The dynamic re-balancing driver (:mod:`repro.engine.dynamics`) consumes a
sequence of system snapshots; these generators produce the standard
shapes of demand over time, expressed as per-epoch *system utilizations*
applied to any base system:

* :func:`diurnal_utilizations` — the smooth day/night sinusoid;
* :func:`flash_crowd_utilizations` — a baseline with a sudden plateau
  spike (the "slashdot" event);
* :func:`random_walk_utilizations` — mean-reverting noisy drift
  (Ornstein-Uhlenbeck, discretized), for stress-testing warm starts.

All stay strictly inside the stable region ``(0, 1)`` by construction.

The online engine (:mod:`repro.engine`) consumes *churn traces* instead
of snapshots — lists of event epochs; the ``*_churn_trace`` generators
below compose the same demand shapes with computer failures/reopenings,
per-user demand drift, and flash-crowd arrivals/departures.
:func:`day_in_production_trace` is the canonical composition: a multi-day
diurnal curve with a failure/reopen window, mean-reverting phi drift,
and a flash crowd — every epoch feasible on the surviving fleet by
construction (so a full run certifies end to end).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.model import DistributedSystem
from repro.engine.events import (
    ChurnEpoch,
    ComputerFailure,
    ComputerReopen,
    PhiDrift,
    SetUtilization,
    UserArrival,
    UserDeparture,
)
from repro.workloads.configs import paper_table1_system

__all__ = [
    "day_in_production_trace",
    "diurnal_utilizations",
    "failure_reopen_churn_trace",
    "flash_crowd_churn_trace",
    "flash_crowd_utilizations",
    "merge_churn_traces",
    "phi_drift_churn_trace",
    "random_walk_utilizations",
    "systems_from_utilizations",
    "utilization_churn_trace",
]

_EPS = 1e-3


def _check_band(low: float, high: float) -> None:
    if not 0.0 < low <= high < 1.0:
        raise ValueError("utilization band must satisfy 0 < low <= high < 1")


def diurnal_utilizations(
    n_epochs: int = 24, *, low: float = 0.3, high: float = 0.85
) -> np.ndarray:
    """One day of sinusoidal load: trough ``low``, peak ``high``."""
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    _check_band(low, high)
    phase = np.linspace(0.0, 2.0 * np.pi, n_epochs, endpoint=False)
    mid = 0.5 * (low + high)
    amplitude = 0.5 * (high - low)
    return mid + amplitude * np.sin(phase)


def flash_crowd_utilizations(
    n_epochs: int = 24,
    *,
    baseline: float = 0.4,
    peak: float = 0.9,
    start: int | None = None,
    duration: int | None = None,
) -> np.ndarray:
    """Steady baseline with a sustained spike (defaults: middle third)."""
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    _check_band(baseline, peak)
    if start is None:
        start = n_epochs // 3
    if duration is None:
        duration = max(1, n_epochs // 3)
    if not 0 <= start < n_epochs or duration < 1:
        raise ValueError("spike must lie inside the trace")
    trace = np.full(n_epochs, baseline)
    trace[start : min(n_epochs, start + duration)] = peak
    return trace


def random_walk_utilizations(
    n_epochs: int = 24,
    *,
    mean: float = 0.6,
    volatility: float = 0.08,
    reversion: float = 0.3,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    low: float = 0.05,
    high: float = 0.95,
) -> np.ndarray:
    """Mean-reverting noisy load (discretized Ornstein-Uhlenbeck).

    ``rho_{k+1} = rho_k + reversion (mean - rho_k) + volatility xi_k``,
    clipped to ``[low, high]``.

    ``seed`` may be an integer, a :class:`numpy.random.SeedSequence`, or
    an already-constructed :class:`numpy.random.Generator` — callers
    threading a single seeded stream through a whole experiment pass the
    generator directly.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    _check_band(low, high)
    if not low <= mean <= high:
        raise ValueError("mean must lie inside the clip band")
    if volatility < 0.0 or not 0.0 <= reversion <= 1.0:
        raise ValueError("invalid volatility or reversion")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(seed)
    trace = np.empty(n_epochs)
    level = mean
    for k in range(n_epochs):
        level += reversion * (mean - level) + volatility * rng.standard_normal()
        level = float(np.clip(level, low, high))
        trace[k] = level
    return trace


def utilization_churn_trace(utilizations) -> list[ChurnEpoch]:
    """Demand curve as a churn trace: one ``SetUtilization`` per epoch."""
    trace: list[ChurnEpoch] = []
    for rho in np.asarray(utilizations, dtype=float):
        if not 0.0 < rho < 1.0:
            raise ValueError("trace utilizations must lie in (0, 1)")
        trace.append((SetUtilization(float(rho)),))
    return trace


def phi_drift_churn_trace(
    n_epochs: int,
    *,
    volatility: float = 0.03,
    reversion: float = 0.3,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> list[ChurnEpoch]:
    """Mean-reverting multiplicative demand drift, one ``PhiDrift`` per epoch.

    The *log* of the cumulative drift follows a discretized
    Ornstein-Uhlenbeck process around 0, so the per-epoch factors are
    strictly positive and the cumulative drift stays bounded (it never
    walks the system out of the stable region on its own).
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if volatility < 0.0 or not 0.0 <= reversion <= 1.0:
        raise ValueError("invalid volatility or reversion")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = np.random.default_rng(seed)
    trace: list[ChurnEpoch] = []
    log_level = 0.0
    for _ in range(n_epochs):
        step = reversion * (0.0 - log_level) + volatility * rng.standard_normal()
        log_level += step
        trace.append((PhiDrift(factor=float(np.exp(step))),))
    return trace


def failure_reopen_churn_trace(
    n_epochs: int,
    failures: Iterable[tuple[int, int, int | None]] = (),
) -> list[ChurnEpoch]:
    """Computer failure/reopen windows as a churn trace.

    ``failures`` is a sequence of ``(computer, fail_epoch, reopen_epoch)``
    triples: the computer goes offline at ``fail_epoch`` and comes back
    at ``reopen_epoch`` (``None`` or past the trace end: never within
    this trace).
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    epochs: list[list[ComputerFailure | ComputerReopen]] = [
        [] for _ in range(n_epochs)
    ]
    for computer, fail_epoch, reopen_epoch in failures:
        if not 0 <= fail_epoch < n_epochs:
            raise ValueError("fail_epoch must lie inside the trace")
        if reopen_epoch is not None and reopen_epoch <= fail_epoch:
            raise ValueError("reopen_epoch must come after fail_epoch")
        epochs[fail_epoch].append(ComputerFailure(computer))
        if reopen_epoch is not None and reopen_epoch < n_epochs:
            epochs[reopen_epoch].append(ComputerReopen(computer))
    return [tuple(events) for events in epochs]


def flash_crowd_churn_trace(
    n_epochs: int,
    *,
    arrival_rates: Sequence[float] = (12.0, 8.0),
    start: int | None = None,
    duration: int | None = None,
    name_prefix: str = "flash",
) -> list[ChurnEpoch]:
    """A flash crowd as population churn: arrival burst, later departure.

    ``len(arrival_rates)`` users named ``{name_prefix}-0..`` arrive
    together at ``start`` and all depart at ``start + duration``
    (defaults: the middle third of the trace, mirroring
    :func:`flash_crowd_utilizations`).  The rates are absolute (jobs/s);
    tune them to the base system's capacity scale.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if start is None:
        start = n_epochs // 3
    if duration is None:
        duration = max(1, n_epochs // 3)
    if not 0 <= start < n_epochs or duration < 1:
        raise ValueError("flash crowd must start inside the trace")
    names = tuple(f"{name_prefix}-{j}" for j in range(len(arrival_rates)))
    trace: list[ChurnEpoch] = [() for _ in range(n_epochs)]
    trace[start] = (UserArrival(tuple(float(r) for r in arrival_rates), names),)
    end = start + duration
    if end < n_epochs:
        trace[end] = (UserDeparture(names=names),)
    return trace


def merge_churn_traces(*traces: Sequence[ChurnEpoch]) -> list[ChurnEpoch]:
    """Overlay churn traces epoch by epoch (shorter traces pad with
    empty epochs; within an epoch, events keep argument order)."""
    length = max((len(trace) for trace in traces), default=0)
    merged: list[ChurnEpoch] = []
    for k in range(length):
        events: list = []
        for trace in traces:
            if k < len(trace):
                events.extend(trace[k])
        merged.append(tuple(events))
    return merged


def day_in_production_trace(
    n_epochs: int = 200,
    *,
    low: float = 0.35,
    high: float = 0.8,
    period: int = 24,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    drift_volatility: float = 0.03,
    failures: Iterable[tuple[int, int, int | None]] | None = None,
    flash_start: int | None = None,
    flash_duration: int | None = None,
    flash_rates: Sequence[float] = (12.0, 8.0),
) -> list[ChurnEpoch]:
    """The canonical "day in production" churn composition.

    Per epoch, in order: the diurnal ``SetUtilization`` (the ``period``-
    epoch day tiled across the trace), a mean-reverting ``PhiDrift``,
    then any failure/reopen events and flash-crowd churn.  Defaults are
    tuned to the Table-1 fleet: the failed computer is index 15 (the
    slowest, 10 jobs/s), so even the diurnal peak plus drift stays
    strictly feasible on the 15 survivors and every epoch of the run
    certifies.

    ``failures`` defaults to one failure/reopen window in the second
    quarter of the trace; the flash crowd lands in the final third.
    """
    if n_epochs < 1:
        raise ValueError("need at least one epoch")
    if period < 1:
        raise ValueError("period must be at least one epoch")
    day = diurnal_utilizations(min(period, n_epochs), low=low, high=high)
    curve = np.resize(day, n_epochs)
    if failures is None:
        fail_at = n_epochs // 4
        reopen_at = fail_at + max(2, n_epochs // 10)
        failures = ((15, fail_at, min(reopen_at, n_epochs - 1)),)
    if flash_start is None:
        flash_start = (2 * n_epochs) // 3
    if flash_duration is None:
        flash_duration = max(2, n_epochs // 12)
    return merge_churn_traces(
        utilization_churn_trace(curve),
        phi_drift_churn_trace(n_epochs, seed=seed, volatility=drift_volatility),
        failure_reopen_churn_trace(n_epochs, failures),
        flash_crowd_churn_trace(
            n_epochs,
            arrival_rates=flash_rates,
            start=flash_start,
            duration=flash_duration,
        ),
    )


def systems_from_utilizations(
    utilizations, *, n_users: int = 10, base: DistributedSystem | None = None
) -> list[DistributedSystem]:
    """Materialize a utilization trace into system snapshots.

    ``base`` defaults to the Table-1 system; its computers are kept and
    the user population rescaled per epoch.
    """
    snapshots = []
    for rho in np.asarray(utilizations, dtype=float):
        if not 0.0 < rho < 1.0:
            raise ValueError("trace utilizations must lie in (0, 1)")
        if base is None:
            snapshots.append(
                paper_table1_system(utilization=float(rho), n_users=n_users)
            )
        else:
            snapshots.append(base.with_utilization(float(rho)))
    return snapshots

"""The load balancing game with communication delays (model extension).

The IPDPS paper's model charges a job only its queueing delay at the
chosen computer.  The authors' extended journal treatment (and the
routing literature the paper builds on — Orda et al., Korilis et al.)
adds a **communication delay** ``t_i`` for shipping a job to computer
``i``, so user ``j``'s cost becomes

    D_j(s) = sum_i s_ji * ( 1/(mu_i - lambda_i) + t_ji )

With delays the best response is still the unique solution of a convex
program, but the square-root water-fill closed form no longer applies:
the KKT conditions become

    a_i / (a_i - x_i)^2 + t_i = alpha        on the support,
    1/a_i + t_i >= alpha                     off the support,

so ``x_i(alpha) = a_i - sqrt(a_i / (alpha - t_i))`` and the multiplier
``alpha`` is fixed by flow conservation.  The delay is a per-computer
additive cost, so :func:`delayed_best_response` is the class fill of
:mod:`repro.core.classes` for a class of one with ``t`` as its offset
(safeguarded Newton on ``u = 1/alpha``), and :class:`DelayedNashSolver`
runs the class sweep driver with one class per user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classes import (
    _EVENTS,
    ClassNashSolver,
    _singleton_classes,
    _symmetric_class_fill,
)
from repro.core.model import DistributedSystem
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import _validate_inputs

__all__ = [
    "DelayedGame",
    "delayed_best_response",
    "DelayedNashResult",
    "DelayedNashSolver",
]


@dataclass(frozen=True)
class DelayedGame:
    """A distributed system plus per-user-per-computer communication delays.

    Parameters
    ----------
    system:
        The underlying queueing system.
    delays:
        ``t_ji`` — nonnegative ``(m, n)`` matrix of communication delays
        (seconds added to every job user ``j`` ships to computer ``i``).
        A 1-D vector is broadcast to all users (delays that depend only on
        the computer's location).
    """

    system: DistributedSystem
    delays: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.delays, dtype=float, copy=True)
        m, n = self.system.n_users, self.system.n_computers
        if t.ndim == 1:
            if t.shape != (n,):
                raise ValueError("1-D delays must have one entry per computer")
            t = np.tile(t, (m, 1))
        if t.shape != (m, n):
            raise ValueError(f"delays must have shape ({m}, {n})")
        if np.any(t < 0.0) or not np.all(np.isfinite(t)):
            raise ValueError("delays must be finite and nonnegative")
        t.setflags(write=False)
        object.__setattr__(self, "delays", t)

    def user_costs(self, profile: StrategyProfile) -> np.ndarray:
        """``D_j`` including communication delays."""
        f = profile.fractions
        return self.system.user_response_times(f) + (f * self.delays).sum(axis=1)

    def overall_cost(self, profile: StrategyProfile) -> float:
        phi = self.system.arrival_rates
        return float(self.user_costs(profile) @ phi / phi.sum())


def delayed_best_response(
    available_rates, delays, job_rate: float
) -> np.ndarray:
    """Optimal fractions for one user of the delayed game.

    Solves ``min sum_i x_i/(a_i - x_i) + t_i x_i`` over ``x >= 0`` with
    ``sum x = phi_j``: the class fill for a class of one, with the delays
    as its offset.  With all delays zero this is the paper's OPTIMAL
    water-fill (a property the tests pin down).  Computers with
    nonpositive available rate get nothing.

    Returns the fraction vector (loads divided by ``job_rate``).  Raises
    ``ValueError`` on non-finite rates or delays, negative delays or a
    nonpositive job rate, and ``InfeasibleDemand`` at capacity.
    """
    a = _validate_inputs(available_rates, job_rate)
    t = np.asarray(delays, dtype=float)
    if a.shape != t.shape:
        raise ValueError("rates and delays must be equal-length vectors")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError("delays must be finite and nonnegative")
    if job_rate <= 0.0:
        raise ValueError("job rate must be positive")
    fill = _symmetric_class_fill(a, float(job_rate), 1.0, offset=t)
    return fill.flows / job_rate


@dataclass(frozen=True)
class DelayedNashResult:
    """Outcome of best-reply iteration on the delayed game."""

    profile: StrategyProfile
    converged: bool
    iterations: int
    user_costs: np.ndarray


@dataclass(frozen=True)
class DelayedNashSolver:
    """Round-robin best replies for the communication-delay game.

    Runs :class:`~repro.core.classes.ClassNashSolver`'s sweep driver from
    the proportional split, one class per user, each user's delays the
    offset of its fills; it emits the ``solver.*`` trace events.
    """

    tolerance: float = 1e-6
    max_sweeps: int = 500

    def __post_init__(self) -> None:
        self._driver()  # the class solver validates the configuration

    def _driver(self) -> ClassNashSolver:
        return ClassNashSolver(self.tolerance, self.max_sweeps)

    def solve(self, game: DelayedGame) -> DelayedNashResult:
        users = _singleton_classes(game.system)
        result = self._driver()._run(
            users, "proportional", None, _EVENTS["user"], game.delays
        )
        return DelayedNashResult(
            profile=StrategyProfile(result.class_fractions),
            converged=result.converged,
            iterations=result.iterations,
            # One class per user: the member costs are the user costs.
            user_costs=result.class_times,
        )

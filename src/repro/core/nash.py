"""NASH — the distributed greedy best-reply algorithm (paper Sec. 3).

Users take turns, round-robin, replacing their strategy with the exact
best response (the OPTIMAL algorithm) against the current strategies of
everyone else.  A sweep accumulates ``norm += |D_j^{(l)} - D_j^{(l-1)}|``
over the users; the iteration stops once a full sweep moves the users'
expected response times by less than the acceptance tolerance ``eps``.

Two initializations from the paper's Sec. 4.2.1:

* ``"zero"`` (**NASH_0**) — the all-zero profile; the first sweep builds
  the initial allocation with user 1 seeing an idle system.
* ``"proportional"`` (**NASH_P**) — every user starts from the
  proportional split ``s_ji = mu_i / sum mu_k``, which is near the
  equilibrium and empirically halves the iteration count (Figures 2-3).

This module is the *sequential* entry point; :mod:`repro.distributed`
executes the same algorithm as a message-passing ring protocol and must
produce identical iterates.

Per-user solving is the singleton-class case of class-space solving:
:class:`NashSolver` runs the sweep driver of
:class:`~repro.core.classes.ClassNashSolver` with one class per user
(see docs/PERFORMANCE.md for the kernels and their cost).  The original
driver is preserved verbatim in :mod:`repro.core.reference`; parity
tests pin the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classes import (
    _EVENTS,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOLERANCE,
    ClassNashSolver,
    Initialization,
    UpdateOrder,
    _singleton_classes,
    initial_profile,
)
from repro.core.model import DistributedSystem
from repro.core.sampled import SampleCertificate
from repro.core.strategy import StrategyProfile
from repro.telemetry.trace import Tracer

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_SWEEPS",
    "Initialization",
    "UpdateOrder",
    "NashResult",
    "NashSolver",
    "compute_nash_equilibrium",
    "initial_profile",
]


@dataclass(frozen=True)
class NashResult:
    """Outcome of the best-reply iteration.

    Attributes
    ----------
    profile:
        The final strategy profile (the Nash equilibrium on convergence).
    converged:
        Whether the sweep norm fell below the tolerance within the sweep
        budget.
    iterations:
        Number of completed sweeps (one sweep = every user updates once;
        this is the x-axis of the paper's Figure 2 and the y-axis of
        Figure 3).
    norm_history:
        Sweep norm after each sweep, ``norm_history[l] = sum_j
        |D_j^{(l+1)} - D_j^{(l)}|``.
    user_times:
        Per-user expected response times under the final profile.
    profile_history:
        Profiles after each sweep (present only when recorded).
    sample:
        The :class:`~repro.core.sampled.SampleCertificate` of a
        ``sample_k`` solve — poll spend, sampled norm and the *true*
        global epsilon — or ``None`` for a full-information solve.
    """

    profile: StrategyProfile
    converged: bool
    iterations: int
    norm_history: np.ndarray
    user_times: np.ndarray
    profile_history: tuple[StrategyProfile, ...] = field(default=())
    sample: SampleCertificate | None = None

    @property
    def final_norm(self) -> float:
        return float(self.norm_history[-1]) if self.norm_history.size else 0.0


@dataclass(frozen=True)
class NashSolver:
    """Configured best-reply solver.

    Parameters
    ----------
    tolerance:
        Acceptance tolerance ``eps`` on the per-sweep norm.
    max_sweeps:
        Sweep budget; exceeding it returns ``converged=False`` rather than
        raising, because partial profiles remain informative (the paper
        notes convergence for >2 users is an open problem, although every
        experiment here and in the paper converges).
    record_history:
        Keep a copy of the profile after every sweep (needed by the
        convergence experiments, off by default to save memory).
    order:
        Update schedule within a sweep.  ``"roundrobin"`` is the paper's
        algorithm (users update in index order, each seeing the others'
        freshest strategies — Gauss-Seidel).  ``"random"`` permutes the
        order every sweep (needs ``seed``), probing the paper's open question
        about schedule-independence of convergence.  ``"simultaneous"``
        has every user best-respond to the *previous* sweep's profile
        (Jacobi); it can overshoot and is included as an ablation.
    seed:
        RNG seed for the ``"random"`` order (ignored otherwise) and for
        the per-reply sample draws of ``sample_k`` mode.
    sample_k:
        ``None`` (default) runs the paper's full-information best
        replies.  An integer ``k`` switches to power-of-k sampled
        replies (:mod:`repro.core.sampled`): each user best-responds
        over its current support plus ``k`` seeded random probes per
        sweep.  ``k >= n`` takes the exact full-information code path —
        bit-for-bit identical profiles — while still attaching the
        :class:`~repro.core.sampled.SampleCertificate` with the
        full-information poll baseline.
    """

    tolerance: float = DEFAULT_TOLERANCE
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    record_history: bool = False
    order: UpdateOrder = "roundrobin"
    seed: int = 0
    sample_k: int | None = None

    def __post_init__(self) -> None:
        self._driver()  # the class solver validates the shared configuration

    def _driver(self) -> ClassNashSolver:
        return ClassNashSolver(
            tolerance=self.tolerance,
            max_sweeps=self.max_sweeps,
            order=self.order,
            seed=self.seed,
            record_history=self.record_history,
            sample_k=self.sample_k,
        )

    def solve(
        self,
        system: DistributedSystem,
        init: Initialization | StrategyProfile | np.ndarray = "proportional",
        *,
        tracer: Tracer | None = None,
    ) -> NashResult:
        """Run best-reply sweeps from the given initialization.

        The sweeps run in :class:`~repro.core.classes.ClassNashSolver`'s
        driver on one class per user, in user order, so each class reply
        is exactly the user's OPTIMAL best reply.

        ``tracer`` (default: the ambient tracer, disabled unless installed
        with :func:`repro.telemetry.use_tracer`) records one
        ``solver.sweep`` event per sweep — the norm, the per-user regrets
        ``|D_j^{(l)} - D_j^{(l-1)}|`` and the kernel wall time — plus
        ``solver.start``/``solver.done`` bracketing events.  With the
        default no-op sink the instrumentation reduces to one branch per
        sweep (see docs/OBSERVABILITY.md for the overhead guarantee).
        """
        result = self._driver()._run(
            _singleton_classes(system), init, tracer, _EVENTS["user"]
        )
        return NashResult(
            profile=StrategyProfile(result.class_fractions),
            converged=result.converged,
            iterations=result.iterations,
            norm_history=result.norm_history,
            # With one class per user the member times are the user times.
            user_times=result.class_times,
            profile_history=tuple(StrategyProfile(f) for f in result.history),
            sample=result.sample,
        )


def compute_nash_equilibrium(
    system: DistributedSystem,
    *,
    init: Initialization | StrategyProfile = "proportional",
    tolerance: float = DEFAULT_TOLERANCE,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    record_history: bool = False,
) -> NashResult:
    """One-call façade over :class:`NashSolver`.

    >>> from repro.workloads import paper_table1_system
    >>> result = compute_nash_equilibrium(paper_table1_system(utilization=0.6))
    >>> result.converged
    True
    """
    solver = NashSolver(
        tolerance=tolerance, max_sweeps=max_sweeps, record_history=record_history
    )
    return solver.solve(system, init)

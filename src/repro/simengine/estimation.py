"""Run-queue estimation and the measurement-driven best-reply loop.

The paper says the inputs of the OPTIMAL algorithm come from reality:
"the available processing rate can be determined by statistical
estimation of the run queue length of each processor."  This module
closes that loop with the simulation engine standing in for the real
system:

1. :func:`estimate_loads_from_queue_lengths` inverts the M/M/1 occupancy
   law ``E[N] = rho / (1 - rho)`` to turn the time-averaged run-queue
   length of each computer into an estimate of its arrival rate
   ``lambda_hat_i = mu_i * N_bar_i / (1 + N_bar_i)``.
2. :func:`run_measured_best_reply` alternates *measure* and *react*: the
   current strategy profile runs on the event-driven simulator for a
   measurement window (sampling queue lengths), each user converts the
   estimates into available rates and best-responds, and the cycle
   repeats — the NASH algorithm exactly as it would be deployed, with no
   oracle access to the true rates.

The closed loop converges to a neighbourhood of the analytic Nash
equilibrium whose radius shrinks as the measurement window grows — the
empirical companion to the ABL4 noise ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.best_response import optimal_fractions
from repro.core.equilibrium import best_response_regrets
from repro.core.model import DistributedSystem
from repro.core.nash import Initialization, initial_profile
from repro.core.strategy import StrategyProfile
from repro.simengine.simulator import LoadBalancingSimulation

__all__ = [
    "estimate_loads_from_queue_lengths",
    "MeasuredBestReplyResult",
    "run_measured_best_reply",
]


def estimate_loads_from_queue_lengths(
    mean_queue_lengths, service_rates
) -> np.ndarray:
    """Per-computer arrival-rate estimates from mean run-queue lengths.

    Inverts the stationary M/M/1 occupancy ``E[N] = rho/(1 - rho)``:
    ``rho_hat = N_bar / (1 + N_bar)``, ``lambda_hat = mu * rho_hat``.
    Always maps into the stable region (``lambda_hat < mu``), regardless
    of how noisy the sample is.
    """
    n_bar = np.asarray(mean_queue_lengths, dtype=float)
    mu = np.asarray(service_rates, dtype=float)
    if n_bar.shape != mu.shape:
        raise ValueError("queue lengths and service rates must align")
    if np.any(n_bar < 0.0):
        raise ValueError("queue lengths must be nonnegative")
    return mu * n_bar / (1.0 + n_bar)


@dataclass(frozen=True)
class MeasuredBestReplyResult:
    """Outcome of the measurement-driven best-reply loop.

    Attributes
    ----------
    profile:
        Strategy profile after the last measure/react cycle.
    regret_history:
        Max unilateral improvement (vs. *true* rates) after each cycle.
    load_estimate_errors:
        Per-cycle relative L1 error of the estimated aggregate loads vs
        the true loads the profile induces.
    """

    profile: StrategyProfile
    regret_history: np.ndarray
    load_estimate_errors: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.regret_history[-1])


def run_measured_best_reply(
    system: DistributedSystem,
    *,
    cycles: int = 10,
    measurement_window: float = 200.0,
    sample_interval: float = 0.5,
    seed: int = 0,
    init: Initialization | StrategyProfile = "proportional",
) -> MeasuredBestReplyResult:
    """Alternate simulated measurement and best-reply reaction.

    Per cycle: simulate the current profile for ``measurement_window``
    seconds (sampling run queues every ``sample_interval``), estimate each
    computer's load, and let every user best-respond to *measured*
    available rates (its own published flow is known to itself exactly).

    Parameters mirror the deployment the paper sketches; the event engine
    plays the part of the physical system.
    """
    if cycles < 1:
        raise ValueError("at least one cycle is required")
    profile = initial_profile(system, init)
    if not profile.is_feasible(system):
        raise ValueError("measured loop needs a feasible starting profile")
    fractions = profile.fractions.copy()
    phi = system.arrival_rates
    mu = system.service_rates
    seeds = np.random.SeedSequence(seed).spawn(cycles)

    regrets: list[float] = []
    estimate_errors: list[float] = []
    for cycle in range(cycles):
        current = StrategyProfile(fractions.copy())
        measurement = LoadBalancingSimulation(
            system,
            current,
            horizon=measurement_window,
            warmup=0.1 * measurement_window,
            seed=seeds[cycle],
            sample_interval=sample_interval,
        ).run()
        estimated_loads = estimate_loads_from_queue_lengths(
            measurement.mean_queue_lengths(), mu
        )
        true_loads = system.loads(fractions)
        estimate_errors.append(
            float(
                np.abs(estimated_loads - true_loads).sum()
                / max(true_loads.sum(), 1e-300)
            )
        )

        # React, Gauss-Seidel style: every user sees the measured *other*
        # load (estimated total minus its own known flow), and after each
        # update the running estimate is patched by that user's own flow
        # change — users know their own published flows exactly, so this
        # keeps the shared estimate fresh within the cycle.  Reacting to
        # one stale snapshot simultaneously would reproduce the Jacobi
        # herding oscillation of ablation ABL3.
        running_estimate = estimated_loads.copy()
        for j in range(system.n_users):
            own = fractions[j] * phi[j]
            others = np.clip(running_estimate - own, 0.0, None)
            available = np.maximum(mu - others, 0.0)
            if available[available > 0.0].sum() <= phi[j]:
                # Degenerate estimate; fall back to the truth this turn.
                available = system.available_rates(fractions, j)
            reply = optimal_fractions(available, float(phi[j]))
            candidate = fractions.copy()
            candidate[j] = reply.fractions
            if np.all(phi @ candidate < mu):
                new_own = reply.fractions * phi[j]
                running_estimate += new_own - own
                np.clip(running_estimate, 0.0, None, out=running_estimate)
                fractions = candidate
        cert = best_response_regrets(system, StrategyProfile(fractions.copy()))
        regrets.append(cert.epsilon)

    return MeasuredBestReplyResult(
        profile=StrategyProfile(fractions),
        regret_history=np.asarray(regrets, dtype=float),
        load_estimate_errors=np.asarray(estimate_errors, dtype=float),
    )

"""Output checks.  Each returns a list of failure reasons; empty means
the output is correct.  An operation with any reason counts as failed."""

from __future__ import annotations

import numpy as np

#: Certificate bound every solve must meet (the solvers' default epsilon).
EPSILON = 1e-6
#: Paper Sec. 4.1: simulated response times are accepted within 5%.
SIM_REL_TOL = 0.05
#: Slack on "every class row sums to one".
ROW_SUM_ATOL = 1e-9


def check_class_solve(aggregation, result, certificate) -> list[str]:
    """A class-space solve: certified, conserving, and stable.

    ``result.converged`` is deliberately not checked: a solve that
    exhausts its sweep budget with a valid certificate is correct (it is
    counted under ``budget_exhausted`` instead).
    """
    failures = []
    if not certificate.epsilon <= EPSILON:
        failures.append(f"certificate epsilon {certificate.epsilon:.3g} > {EPSILON:g}")
    fractions = result.class_fractions
    rows = fractions.sum(axis=1)
    if not np.all(np.abs(rows - 1.0) <= ROW_SUM_ATOL):
        worst = float(np.abs(rows - 1.0).max())
        failures.append(f"class row sums off by {worst:.3g}")
    loads = aggregation.demands @ fractions
    if not np.all(loads < aggregation.service_rates):
        failures.append("a computer's load reaches its capacity")
    return failures


def check_epoch(report) -> list[str]:
    """An engine epoch: never exhausted, and certified whenever solved."""
    if report.status == "exhausted":
        return [f"epoch {report.index} exhausted capacity"]
    if report.status in ("ok", "degraded") and not report.certified:
        return [f"epoch {report.index} solved but not certified ({report.epsilon:.3g})"]
    return []


def check_simulation(result) -> list[str]:
    """Any simulation: counted jobs conserved, every computer stable."""
    failures = []
    by_user = int(result.user_job_counts.sum())
    by_computer = int(result.computer_job_counts.sum())
    if by_user <= 0:
        failures.append("simulation counted no jobs")
    if by_user != by_computer:
        failures.append(f"jobs not conserved: {by_user} by user, {by_computer} by computer")
    if not np.all(result.computer_utilizations < 1.0):
        failures.append("a computer's utilization reached 1")
    return failures


def check_response_time(simulated: float, analytic: float, what: str) -> list[str]:
    """Simulated mean response time within the paper's 5% of analytic."""
    error = abs(simulated - analytic) / analytic
    if not error <= SIM_REL_TOL:
        return [f"{what}: simulated {simulated:.5g} is {error:.1%} off analytic {analytic:.5g}"]
    return []

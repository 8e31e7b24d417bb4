"""The four benchmark workloads.

Every workload is a closed loop with one client: the next operation
starts only when the previous one has returned.  Inputs are generated
here from the run seed (``SeedSequence([seed, stream, index])``), so the
same seed gives the same inputs, and the program receives only the
generated inputs.  Each operation's latency covers the program calls
alone; input generation and output checks run outside the timer.

A workload is driven in *batches*: the loop checks its deadline only
between batches.  A batch is one operation, except on ``engine-churn``
where it is one whole churn day, so every run covers whole days.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from perfbench import checks, stats
from perfbench.stats import Metric
from repro.core import classes
from repro.core.model import DistributedSystem
from repro.engine import EngineConfig, OnlineEquilibriumEngine
from repro.schemes import NashScheme, ProportionalScheme
from repro.simengine import fastpath, simulator
from repro.simengine.policies import (
    JoinShortestQueue,
    LeastExpectedDelay,
    PowerOfTwoChoices,
)
from repro.workloads import day_in_production_trace, paper_table1_system

# Seed streams: the warm-up never shares inputs with a measured op.
WARMUP, OPS = 0, 1


@dataclass
class Outcome:
    """One operation: its latency, failures and per-kind accounting."""

    latency_s: float
    failures: list[str] = field(default_factory=list)
    #: Simulation kind -> seconds spent in it (``sim-dispatch`` only).
    seconds: dict[str, float] = field(default_factory=dict)
    #: Simulation kind -> counted jobs (``sim-dispatch`` only).
    jobs: dict[str, int] = field(default_factory=dict)
    #: Solve that spent its whole sweep budget yet certified.
    budget_exhausted: bool = False


def _seq(seed: int, stream: int, index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, stream, index])


# ----------------------------------------------------------------------
# Class-space solves
# ----------------------------------------------------------------------
def class_instance(
    seq: np.random.SeedSequence,
    users: int,
    n_classes: int,
    computers: int,
    utilization: float,
) -> DistributedSystem:
    """``users`` users drawn from ``n_classes`` job rates, scaled to the
    target utilization of ``computers`` computers."""
    rng = np.random.default_rng(seq)
    mu = rng.uniform(50.0, 150.0, size=computers)
    rates = rng.uniform(0.5, 2.0, size=n_classes)
    # Every class keeps at least one member so the class count is exact.
    members = np.concatenate(
        [np.arange(n_classes), rng.integers(n_classes, size=users - n_classes)]
    )
    phi = rates[members]
    phi *= utilization * mu.sum() / phi.sum()
    return DistributedSystem(service_rates=mu, arrival_rates=phi)


@dataclass(frozen=True)
class ClassWorkload:
    """``aggregate_users`` -> ``ClassNashSolver().solve`` ->
    ``class_best_response_regrets`` on a fresh instance per operation."""

    name: str
    users: int
    n_classes: int
    computers: int
    utilization: float
    op_label = "solve"

    def build(self, seed: int) -> int:
        return seed

    def _op(self, seq: np.random.SeedSequence) -> Outcome:
        system = class_instance(
            seq, self.users, self.n_classes, self.computers, self.utilization
        )
        started = perf_counter()
        aggregation = classes.aggregate_users(system)
        result = classes.ClassNashSolver().solve(aggregation, "proportional")
        certificate = classes.class_best_response_regrets(
            aggregation, result.class_fractions
        )
        latency = perf_counter() - started
        return Outcome(
            latency_s=latency,
            failures=checks.check_class_solve(aggregation, result, certificate),
            budget_exhausted=not result.converged,
        )

    def warm_up(self, seed: int) -> None:
        self._op(_seq(seed, WARMUP))

    def batch(self, seed: int, index: int) -> list[Outcome]:
        return [self._op(_seq(seed, OPS, index))]

    def finish(self, seed: int, outcomes: list[Outcome]) -> None:
        pass

    def named_metrics(self, outcomes: list[Outcome]) -> list[Metric]:
        latencies = [o.latency_s for o in outcomes]
        n = len(latencies)
        return [
            Metric("solve_s_p50", stats.median(latencies), "s", n),
            Metric("solves_per_s", n / sum(latencies), "1/s", n),
            Metric("budget_exhausted", sum(o.budget_exhausted for o in outcomes), "count", n),
        ]


# ----------------------------------------------------------------------
# Online engine under churn
# ----------------------------------------------------------------------
def churn_day(seq: np.random.SeedSequence, epochs: int):
    """One diurnal day of churn: load swing, phi drift, a failure and
    reopen of the slowest computer, and a flash crowd."""
    return day_in_production_trace(
        epochs,
        period=epochs,
        low=0.55,
        high=0.9,
        drift_volatility=0.01,
        seed=seq,
    )


@dataclass
class EngineState:
    seed: int
    engine: OnlineEquilibriumEngine


@dataclass(frozen=True)
class EngineWorkload:
    """Churn days fed epoch by epoch through ``process_epoch``."""

    name: str = "engine-churn"
    users: int = 16
    day_epochs: int = 96
    op_label = "epoch"

    def build(self, seed: int) -> EngineState:
        system = paper_table1_system(utilization=0.5, n_users=self.users)
        config = EngineConfig(warm_mode="repair", certify_every=8)
        # The constructor runs the cold bootstrap solve.
        return EngineState(seed, OnlineEquilibriumEngine(system, config=config))

    def _epoch(self, engine: OnlineEquilibriumEngine, epoch) -> Outcome:
        started = perf_counter()
        report = engine.process_epoch(epoch)
        latency = perf_counter() - started
        return Outcome(latency_s=latency, failures=checks.check_epoch(report))

    def warm_up(self, state: EngineState) -> None:
        self._epoch(state.engine, churn_day(_seq(state.seed, WARMUP), self.day_epochs)[0])

    def batch(self, state: EngineState, index: int) -> list[Outcome]:
        day = churn_day(_seq(state.seed, OPS, index), self.day_epochs)
        return [self._epoch(state.engine, epoch) for epoch in day]

    def finish(self, state: EngineState, outcomes: list[Outcome]) -> None:
        pass

    def named_metrics(self, outcomes: list[Outcome]) -> list[Metric]:
        ms = [1e3 * o.latency_s for o in outcomes]
        n = len(ms)
        out = [
            Metric("epoch_ms_p50", stats.median(ms), "ms", n),
            Metric("epoch_ms_p90", stats.percentile(ms, 90.0), "ms", n),
        ]
        tail = stats.tail(ms)
        if tail is not None and tail.q > 90.0:
            out.append(Metric(f"epoch_ms_p{tail.q:g}", tail.value, "ms", n))
        return out


# ----------------------------------------------------------------------
# Simulation: static profiles, dynamic policies, replications
# ----------------------------------------------------------------------
STATIC, POLICY, REPLICATION = "static", "policy", "replication"


@dataclass
class SimState:
    seed: int
    system: DistributedSystem
    #: Static scheme -> [sum of mean * jobs, jobs, analytic time] over
    #: the measured ops; the paper's 5% rule applies to this pooled mean.
    pooled: dict[str, list[float]] = field(default_factory=dict)


@dataclass(frozen=True)
class SimWorkload:
    """One operation is the EXT2 pipeline plus the SIM replication study:
    allocate NASH and PS, simulate both profiles and the JSQ, LED and Po2
    policies event by event, then replicate the NASH profile on the
    Lindley fast path."""

    name: str = "sim-dispatch"
    # Not EXT2's equal 400 s nor SIM's 4000 s: the pooled 5% check needs
    # about 1000 s of static time per scheme in a 15 s run (README.md).
    static_horizon: float = 250.0
    policy_horizon: float = 30.0
    replication_horizon: float = 1000.0
    replications: int = 5
    op_label = "bundle"

    def build(self, seed: int) -> SimState:
        return SimState(seed, paper_table1_system(utilization=0.6, n_users=10))

    def _op(self, state: SimState, seq: np.random.SeedSequence, pool: bool) -> Outcome:
        system = state.system
        static_seq, policy_seq, replication_seq = seq.spawn(3)
        out = Outcome(latency_s=0.0)
        seconds = {STATIC: 0.0, POLICY: 0.0, REPLICATION: 0.0}
        jobs = {STATIC: 0, POLICY: 0, REPLICATION: 0}
        simulated = []

        started = perf_counter()
        allocations = (NashScheme().allocate(system), ProportionalScheme().allocate(system))
        for allocation, run_seq in zip(allocations, static_seq.spawn(2)):
            t0 = perf_counter()
            result = simulator.simulate_profile(
                system,
                allocation.profile,
                horizon=self.static_horizon,
                warmup=self.static_horizon / 10,
                seed=run_seq,
            )
            seconds[STATIC] += perf_counter() - t0
            simulated.append((STATIC, allocation, [result]))
        for policy, run_seq in zip(
            (JoinShortestQueue(), LeastExpectedDelay(), PowerOfTwoChoices()),
            policy_seq.spawn(3),
        ):
            t0 = perf_counter()
            result = simulator.simulate_policy(
                system,
                policy,
                horizon=self.policy_horizon,
                warmup=self.policy_horizon / 10,
                seed=run_seq,
            )
            seconds[POLICY] += perf_counter() - t0
            simulated.append((POLICY, None, [result]))
        t0 = perf_counter()
        results = fastpath.simulate_profile_fast_batch(
            system,
            allocations[0].profile,
            horizon=self.replication_horizon,
            warmup=self.replication_horizon / 10,
            seeds=replication_seq.spawn(self.replications),
        )
        seconds[REPLICATION] += perf_counter() - t0
        simulated.append((REPLICATION, allocations[0], results))
        out.latency_s = perf_counter() - started

        for kind, allocation, runs in simulated:
            for run in runs:
                out.failures += checks.check_simulation(run)
                jobs[kind] += run.total_jobs
            if kind == REPLICATION:
                counted = sum(run.total_jobs for run in runs)
                mean = sum(run.overall_mean_response_time() * run.total_jobs for run in runs) / counted
                out.failures += checks.check_response_time(
                    mean, allocation.overall_time, "NASH replications"
                )
            elif kind == STATIC and pool:
                run = runs[0]
                acc = state.pooled.setdefault(allocation.scheme, [0.0, 0, allocation.overall_time])
                acc[0] += run.overall_mean_response_time() * run.total_jobs
                acc[1] += run.total_jobs
        out.seconds, out.jobs = seconds, jobs
        return out

    def warm_up(self, state: SimState) -> None:
        self._op(state, _seq(state.seed, WARMUP), pool=False)

    def batch(self, state: SimState, index: int) -> list[Outcome]:
        return [self._op(state, _seq(state.seed, OPS, index), pool=True)]

    def finish(self, state: SimState, outcomes: list[Outcome]) -> None:
        """Apply the 5% rule to each static scheme's mean over the run's
        independent replications (one per op), as Sec. 4.1 does; a miss
        fails every op whose static run fed that mean."""
        for scheme, (weighted, counted, analytic) in sorted(state.pooled.items()):
            reasons = checks.check_response_time(
                weighted / counted, analytic, f"{scheme} static over {len(outcomes)} ops"
            )
            for outcome in outcomes:
                outcome.failures += reasons
        state.pooled.clear()

    def named_metrics(self, outcomes: list[Outcome]) -> list[Metric]:
        """Counted jobs per second of wall time spent in each kind."""
        out = []
        for kind in (STATIC, POLICY, REPLICATION):
            jobs = sum(o.jobs[kind] for o in outcomes)
            busy = sum(o.seconds[kind] for o in outcomes)
            out.append(Metric(f"{kind}_jobs_per_s", jobs / busy, "1/s", len(outcomes)))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        ClassWorkload("class-million", 1_000_000, 256, 1024, 0.6),
        ClassWorkload("class-saturated", 1_000_000, 32, 128, 0.95),
        EngineWorkload(),
        SimWorkload(),
    )
}

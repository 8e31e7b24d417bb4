"""Failure counting: an output that is deliberately wrong counts as failed."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from perfbench import checks, harness
from perfbench.workloads import STATIC, ClassWorkload, Outcome, SimState, SimWorkload
from repro.core import classes

TINY = ClassWorkload("tiny-class", users=200, n_classes=4, computers=8, utilization=0.6)


def test_correct_class_solves_pass():
    loop = harness.run_loop(TINY, TINY.build(3), batches=3)
    assert (loop.attempted, loop.failed) == (3, 0)


def test_wrong_class_profile_counts_as_failed(monkeypatch):
    solve = classes.ClassNashSolver.solve

    def skewed(self, aggregation, *args, **kwargs):
        result = solve(self, aggregation, *args, **kwargs)
        # Every row now sums to 1.1: demand is no longer conserved.
        return replace(result, class_fractions=result.class_fractions * 1.1)

    monkeypatch.setattr(classes.ClassNashSolver, "solve", skewed)
    loop = harness.run_loop(TINY, TINY.build(3), batches=3)
    assert (loop.attempted, loop.failed) == (3, 3)
    assert all("row sums" in " ".join(o.failures) for o in loop.outcomes)


def test_raising_op_counts_as_failed(monkeypatch):
    def boom(system, **kwargs):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(classes, "aggregate_users", boom)
    loop = harness.run_loop(TINY, TINY.build(3), batches=2)
    assert (loop.attempted, loop.failed) == (2, 2)


def test_class_check_flags_each_violation():
    system = SimpleNamespace(
        demands=np.array([1.0, 1.0]), service_rates=np.array([3.0, 3.0])
    )
    good = np.array([[0.5, 0.5], [0.5, 0.5]])
    certified = SimpleNamespace(epsilon=1e-9)
    assert checks.check_class_solve(system, SimpleNamespace(class_fractions=good), certified) == []
    loose = SimpleNamespace(epsilon=1e-3)
    assert checks.check_class_solve(system, SimpleNamespace(class_fractions=good), loose)
    overloaded = np.array([[1.0, 0.0], [1.0, 0.0]])
    fast = SimpleNamespace(demands=np.array([2.0, 2.0]), service_rates=np.array([3.0, 3.0]))
    assert checks.check_class_solve(fast, SimpleNamespace(class_fractions=overloaded), certified)


def test_epoch_check():
    def report(status, certified):
        return SimpleNamespace(status=status, certified=certified, index=1, epsilon=0.0)

    assert checks.check_epoch(report("ok", True)) == []
    assert checks.check_epoch(report("degraded", True)) == []
    assert checks.check_epoch(report("idle", True)) == []
    assert checks.check_epoch(report("ok", False))
    assert checks.check_epoch(report("exhausted", False))


def test_simulation_check():
    def result(by_user, by_computer, util):
        return SimpleNamespace(
            user_job_counts=np.array(by_user),
            computer_job_counts=np.array(by_computer),
            computer_utilizations=np.array(util),
        )

    assert checks.check_simulation(result([3, 4], [5, 2], [0.5, 0.9])) == []
    assert checks.check_simulation(result([3, 4], [5, 1], [0.5, 0.9]))
    assert checks.check_simulation(result([3, 4], [5, 2], [0.5, 1.0]))
    assert checks.check_simulation(result([0, 0], [0, 0], [0.0, 0.0]))


def test_response_time_check_is_the_five_percent_rule():
    assert checks.check_response_time(1.04, 1.0, "x") == []
    assert checks.check_response_time(0.96, 1.0, "x") == []
    assert checks.check_response_time(1.06, 1.0, "x")
    assert checks.check_response_time(0.94, 1.0, "x")


def test_pooled_static_miss_fails_every_op():
    state = SimState(seed=0, system=None, pooled={"NASH": [1.10 * 100, 100, 1.0]})
    outcomes = [Outcome(0.1), Outcome(0.1)]
    SimWorkload().finish(state, outcomes)
    assert all(o.failures for o in outcomes)
    assert state.pooled == {}

    state.pooled["NASH"] = [1.01 * 100, 100, 1.0]
    outcomes = [Outcome(0.1, jobs={STATIC: 100})]
    SimWorkload().finish(state, outcomes)
    assert not outcomes[0].failures

"""Tests for the synthetic workload trace generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.dynamics import run_dynamic_balancing
from repro.engine.events import (
    ComputerFailure,
    ComputerReopen,
    PhiDrift,
    SetUtilization,
    UserArrival,
    UserDeparture,
)
from repro.workloads.configs import paper_table1_system
from repro.workloads.traces import (
    day_in_production_trace,
    diurnal_utilizations,
    failure_reopen_churn_trace,
    flash_crowd_churn_trace,
    flash_crowd_utilizations,
    merge_churn_traces,
    phi_drift_churn_trace,
    random_walk_utilizations,
    systems_from_utilizations,
    utilization_churn_trace,
)


class TestDiurnal:
    def test_band_respected(self):
        trace = diurnal_utilizations(48, low=0.3, high=0.85)
        assert trace.min() >= 0.3 - 1e-12
        assert trace.max() <= 0.85 + 1e-12

    def test_hits_both_extremes(self):
        trace = diurnal_utilizations(360, low=0.2, high=0.8)
        assert trace.max() == pytest.approx(0.8, abs=1e-3)
        assert trace.min() == pytest.approx(0.2, abs=1e-3)

    def test_length(self):
        assert diurnal_utilizations(7).size == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_utilizations(0)
        with pytest.raises(ValueError):
            diurnal_utilizations(5, low=0.9, high=0.5)
        with pytest.raises(ValueError):
            diurnal_utilizations(5, low=0.2, high=1.0)


class TestFlashCrowd:
    def test_default_spike_in_middle_third(self):
        trace = flash_crowd_utilizations(24, baseline=0.4, peak=0.9)
        assert trace[0] == 0.4
        assert trace[8] == 0.9
        assert trace[-1] == 0.4

    def test_custom_spike(self):
        trace = flash_crowd_utilizations(
            10, baseline=0.3, peak=0.8, start=7, duration=5
        )
        # Spike truncated at the trace end.
        np.testing.assert_array_equal(trace[7:], 0.8)
        np.testing.assert_array_equal(trace[:7], 0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            flash_crowd_utilizations(5, start=9)
        with pytest.raises(ValueError):
            flash_crowd_utilizations(5, duration=0)


class TestRandomWalk:
    def test_band_and_determinism(self):
        a = random_walk_utilizations(50, seed=3)
        b = random_walk_utilizations(50, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.05 and a.max() <= 0.95

    def test_mean_reversion(self):
        trace = random_walk_utilizations(
            2000, mean=0.6, volatility=0.05, reversion=0.5, seed=1
        )
        assert trace.mean() == pytest.approx(0.6, abs=0.02)

    def test_different_seeds_differ(self):
        a = random_walk_utilizations(20, seed=1)
        b = random_walk_utilizations(20, seed=2)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walk_utilizations(5, mean=0.99)
        with pytest.raises(ValueError):
            random_walk_utilizations(5, volatility=-0.1)


class TestMaterialization:
    def test_table1_default(self):
        systems = systems_from_utilizations([0.3, 0.7])
        assert len(systems) == 2
        assert systems[0].system_utilization == pytest.approx(0.3)
        assert systems[1].system_utilization == pytest.approx(0.7)

    def test_custom_base(self):
        base = paper_table1_system(utilization=0.5, n_users=4)
        systems = systems_from_utilizations([0.2], base=base)
        assert systems[0].n_users == 4
        assert systems[0].system_utilization == pytest.approx(0.2)

    def test_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            systems_from_utilizations([1.2])

    def test_end_to_end_with_dynamics(self):
        """Trace -> snapshots -> converged dynamic re-balancing."""
        trace = flash_crowd_utilizations(4, baseline=0.4, peak=0.8)
        systems = systems_from_utilizations(trace, n_users=4)
        outcome = run_dynamic_balancing(systems)
        assert outcome.all_converged
        times = outcome.user_time_trajectory.mean(axis=1)
        # The flash crowd epochs are visibly slower.
        assert times[1] > 2.0 * times[0]


class TestChurnTraceGenerators:
    def test_utilization_trace_wraps_each_epoch(self):
        trace = utilization_churn_trace([0.3, 0.7])
        assert trace == [(SetUtilization(0.3),), (SetUtilization(0.7),)]

    def test_utilization_trace_rejects_out_of_band(self):
        with pytest.raises(ValueError):
            utilization_churn_trace([0.5, 1.0])

    def test_phi_drift_is_seeded_and_positive(self):
        a = phi_drift_churn_trace(30, seed=5)
        b = phi_drift_churn_trace(30, seed=5)
        assert a == b
        assert len(a) == 30
        assert all(
            len(epoch) == 1 and epoch[0].factor > 0.0 for epoch in a
        )

    def test_phi_drift_cumulative_level_is_bounded(self):
        # OU on the log keeps the cumulative drift near 1 — it must not
        # walk the demand out of the stable region on its own.
        trace = phi_drift_churn_trace(500, volatility=0.03, seed=2)
        level = 1.0
        levels = []
        for (event,) in trace:
            level *= event.factor
            levels.append(level)
        assert 0.5 < min(levels) and max(levels) < 2.0

    def test_phi_drift_validation(self):
        with pytest.raises(ValueError):
            phi_drift_churn_trace(0)
        with pytest.raises(ValueError):
            phi_drift_churn_trace(5, volatility=-0.1)

    def test_failure_reopen_windows(self):
        trace = failure_reopen_churn_trace(6, [(3, 1, 4), (0, 2, None)])
        assert trace[1] == (ComputerFailure(3),)
        assert trace[2] == (ComputerFailure(0),)
        assert trace[4] == (ComputerReopen(3),)
        assert trace[0] == () and trace[5] == ()

    def test_failure_reopen_validation(self):
        with pytest.raises(ValueError, match="inside the trace"):
            failure_reopen_churn_trace(4, [(0, 9, None)])
        with pytest.raises(ValueError, match="after fail_epoch"):
            failure_reopen_churn_trace(4, [(0, 2, 2)])

    def test_flash_crowd_arrives_and_departs(self):
        trace = flash_crowd_churn_trace(
            9, arrival_rates=(5.0, 3.0), start=2, duration=4
        )
        assert trace[2] == (
            UserArrival((5.0, 3.0), ("flash-0", "flash-1")),
        )
        assert trace[6] == (UserDeparture(names=("flash-0", "flash-1")),)
        assert sum(len(epoch) for epoch in trace) == 2

    def test_flash_crowd_past_end_never_departs(self):
        trace = flash_crowd_churn_trace(
            5, arrival_rates=(1.0,), start=3, duration=10
        )
        kinds = [type(e) for epoch in trace for e in epoch]
        assert kinds == [UserArrival]

    def test_merge_overlays_and_pads(self):
        a = [(ComputerFailure(0),), ()]
        b = [(PhiDrift(factor=1.1),), (ComputerReopen(0),), (PhiDrift(factor=0.9),)]
        merged = merge_churn_traces(a, b)
        assert merged == [
            (ComputerFailure(0), PhiDrift(factor=1.1)),
            (ComputerReopen(0),),
            (PhiDrift(factor=0.9),),
        ]
        assert merge_churn_traces() == []


class TestDayInProduction:
    def test_composition_and_determinism(self):
        a = day_in_production_trace(60, seed=4)
        b = day_in_production_trace(60, seed=4)
        assert a == b
        assert len(a) == 60
        # Every epoch leads with the diurnal utilization then the drift.
        for epoch in a:
            assert isinstance(epoch[0], SetUtilization)
            assert isinstance(epoch[1], PhiDrift)

    def test_default_failure_window_and_flash_crowd(self):
        trace = day_in_production_trace(60)
        kinds = [
            type(event) for epoch in trace for event in epoch
        ]
        assert kinds.count(ComputerFailure) == 1
        assert kinds.count(ComputerReopen) == 1
        assert kinds.count(UserArrival) == 1
        assert kinds.count(UserDeparture) == 1
        failure = next(
            e for epoch in trace for e in epoch
            if isinstance(e, ComputerFailure)
        )
        assert failure.computer == 15  # the slowest: peak stays feasible

    def test_failure_precedes_reopen(self):
        trace = day_in_production_trace(40)
        order = [
            type(e) for epoch in trace for e in epoch
            if isinstance(e, (ComputerFailure, ComputerReopen))
        ]
        assert order == [ComputerFailure, ComputerReopen]

    def test_validation(self):
        with pytest.raises(ValueError):
            day_in_production_trace(0)
        with pytest.raises(ValueError):
            day_in_production_trace(10, period=0)

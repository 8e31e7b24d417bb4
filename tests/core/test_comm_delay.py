"""Tests for the communication-delay game extension (EXT4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.best_response import optimal_fractions
from repro.core.classes import _symmetric_class_fill
from repro.core.comm_delay import (
    DelayedGame,
    DelayedNashSolver,
    delayed_best_response,
)
from repro.core.nash import NashSolver
from repro.core.strategy import StrategyProfile
from repro.core.waterfill import InfeasibleDemand
from repro.telemetry.sinks import InMemorySink
from repro.telemetry.trace import Tracer, use_tracer
from repro.workloads.configs import paper_table1_system


def delayed_cost(available, delays, fractions, job_rate):
    x = np.asarray(fractions) * job_rate
    used = x > 0
    # reprolint: allow=R003 independent oracle, deliberately not via repro.queueing
    queueing = (np.asarray(fractions)[used] / (available[used] - x[used])).sum()
    shipping = float((np.asarray(fractions) * delays).sum())
    return float(queueing) + shipping


class TestDelayedBestResponse:
    def test_zero_delay_reduces_to_optimal(self):
        a = np.array([20.0, 10.0, 5.0])
        with_delay = delayed_best_response(a, np.zeros(3), 12.0)
        plain = optimal_fractions(a, 12.0).fractions
        np.testing.assert_allclose(with_delay, plain, atol=1e-10)

    def test_fractions_form_distribution(self):
        a = np.array([15.0, 8.0, 4.0])
        t = np.array([0.0, 0.1, 0.3])
        f = delayed_best_response(a, t, 10.0)
        assert f.sum() == pytest.approx(1.0)
        assert np.all(f >= 0.0)

    def test_result_stable(self):
        a = np.array([15.0, 8.0, 4.0])
        t = np.array([0.05, 0.0, 0.2])
        f = delayed_best_response(a, t, 12.0)
        assert np.all(f * 12.0 < a)

    def test_delay_repels_traffic(self):
        a = np.array([10.0, 10.0])
        no_delay = delayed_best_response(a, np.zeros(2), 8.0)
        assert no_delay[0] == pytest.approx(0.5)
        penalized = delayed_best_response(a, np.array([0.5, 0.0]), 8.0)
        assert penalized[0] < 0.5

    def test_huge_delay_excludes_computer(self):
        a = np.array([10.0, 10.0])
        f = delayed_best_response(a, np.array([1e6, 0.0]), 4.0)
        assert f[0] == 0.0
        assert f[1] == pytest.approx(1.0)

    def test_matches_scipy(self):
        from scipy import optimize

        a = np.array([14.0, 9.0, 5.0])
        t = np.array([0.02, 0.08, 0.0])
        rate = 10.0

        def objective(s):
            s = np.clip(s, 1e-15, None)
            return delayed_cost(a, t, s, rate)

        solution = optimize.minimize(
            objective,
            x0=np.full(3, 1.0 / 3.0),
            bounds=[(0.0, min(1.0, ai / rate * (1 - 1e-9))) for ai in a],
            constraints=[{"type": "eq", "fun": lambda s: s.sum() - 1.0}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        mine = delayed_best_response(a, t, rate)
        assert delayed_cost(a, t, mine, rate) <= solution.fun + 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            delayed_best_response([10.0], [0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            delayed_best_response([10.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            delayed_best_response([1.0], [0.0], 2.0)

    @pytest.mark.parametrize(
        "rates, delays",
        [
            ([10.0, 5.0], [np.nan, 0.0]),
            ([10.0, 5.0], [np.inf, 0.0]),
            ([10.0, 5.0], [-0.1, 0.0]),
            ([np.nan, 5.0], [0.0, 0.0]),
            ([np.inf, 5.0], [0.0, 0.0]),
        ],
    )
    def test_non_finite_or_negative_inputs_raise_value_error(self, rates, delays):
        with pytest.raises(ValueError, match="finite"):
            delayed_best_response(rates, delays, 3.0)

    @pytest.mark.parametrize("job_rate", [np.nan, -1.0])
    def test_bad_job_rate_raises_value_error(self, job_rate):
        with pytest.raises(ValueError):
            delayed_best_response([10.0, 5.0], [0.0, 0.0], job_rate)

    def test_demand_at_capacity_raises_infeasible_demand(self):
        with pytest.raises(InfeasibleDemand) as info:
            delayed_best_response([4.0, 0.0, -2.0, 6.0], [0.1, 0.0, 0.0, 0.2], 10.0)
        assert info.value.demand == 10.0
        assert info.value.capacity == 10.0

    def test_unavailable_computers_get_nothing(self):
        f = delayed_best_response(
            [0.0, 12.0, -3.0, 6.0], [0.0, 0.05, 0.0, 0.0], 9.0
        )
        assert f[0] == 0.0 and f[2] == 0.0
        assert f[1] > 0.0 and f[3] > 0.0
        assert f.sum() == pytest.approx(1.0, abs=1e-15)

    @given(
        st.lists(st.floats(1.0, 50.0), min_size=2, max_size=6),
        st.lists(st.floats(0.0, 0.5), min_size=2, max_size=6),
        st.floats(0.1, 0.8),
    )
    @settings(max_examples=60, deadline=None)
    def test_beats_uniform_generically(self, rates, delays, frac):
        n = min(len(rates), len(delays))
        a = np.asarray(rates[:n])
        t = np.asarray(delays[:n])
        job_rate = frac * a.sum()
        best = delayed_best_response(a, t, job_rate)
        uniform = np.full(n, 1.0 / n)
        if np.all(uniform * job_rate < a):
            assert delayed_cost(a, t, best, job_rate) <= (
                delayed_cost(a, t, uniform, job_rate) + 1e-9
            )


def assert_kkt(a, t, flows, demand, count=1.0, rtol=1e-11):
    """Check the KKT conditions of a (symmetric class) delayed fill.

    A member of a ``count``-member class that puts ``y_i / count`` on
    computer ``i`` sees the available rate ``g_i + y_i / count`` (``g``
    the gap left by the class), so its marginal cost there is
    ``(g_i + y_i/count) / g_i^2 + t_i``; at zero flow it is
    ``1/a_i + t_i``.
    """
    used = flows > 0.0
    assert np.all(flows[a <= 0.0] == 0.0)
    assert used.any()
    gap = a[used] - flows[used]
    assert np.all(gap > 0.0)
    marginal = (gap + flows[used] / count) / gap**2 + t[used]
    alpha = float(marginal.max())
    assert float(marginal.min()) >= alpha * (1.0 - rtol)
    idle = (~used) & (a > 0.0)
    assert np.all(1.0 / a[idle] + t[idle] >= alpha * (1.0 - rtol))
    # Conservation to the rounding of an n <= 12 term sum.
    assert float(flows.sum()) == pytest.approx(demand, rel=4e-15)


kkt_rates = st.lists(
    st.one_of(st.just(0.0), st.floats(0.5, 100.0)), min_size=2, max_size=12
)
kkt_delays = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.5, 20.0)),
    min_size=2,
    max_size=12,
)


class TestDelayedReplyKKT:
    """The delayed reply is the KKT point, on awkward inputs too: some
    computers have no capacity, some delays close a computer."""

    @given(kkt_rates, kkt_delays, st.floats(0.05, 0.95))
    @settings(max_examples=300, deadline=None)
    def test_reply_satisfies_kkt(self, rates, delays, frac):
        n = min(len(rates), len(delays))
        a = np.asarray(rates[:n])
        t = np.asarray(delays[:n])
        cap = float(a[a > 0.0].sum())
        assume(cap > 0.0)
        job_rate = frac * cap
        f = delayed_best_response(a, t, job_rate)
        assert np.all(f >= 0.0)
        assert float(f.sum()) == pytest.approx(1.0, rel=4e-15)
        assert_kkt(a, t, f * job_rate, job_rate)

    def test_delay_can_close_a_computer(self):
        a = np.array([40.0, 30.0, 0.0, 20.0])
        t = np.array([0.0, 5.0, 0.0, 0.01])
        f = delayed_best_response(a, t, 30.0)
        assert f[1] == 0.0 and f[2] == 0.0
        assert_kkt(a, t, f * 30.0, 30.0)

    def test_newton_that_bounces_across_the_root_bisects(self):
        """A delay bends the conservation sum; plain safeguarded Newton
        bounced between the two sides of the root here until the cap."""
        a = np.array(
            [87.22181756750506, 0.0, 0.0, 0.0, 77.36658134897665,
             68.82512981027813, 53.90466906925626, 37.99744997964053,
             29.04761527299038, 58.456011507167, 80.47987907129402,
             35.45246551660563]
        )
        t = np.zeros(12)
        t[[4, 8, 9, 11]] = [
            0.3100921153905306, 10.59265819191354,
            0.22652163937974373, 5.610378620300648,
        ]
        demand = 264.3004363885643
        fill = _symmetric_class_fill(a, demand, 1.0, offset=t)
        assert fill.iterations < 30
        assert_kkt(a, t, fill.flows, demand)

    def test_residual_next_to_a_pole_keeps_kkt(self):
        """Computer 1 is open with u t_1 close to 1, where one ulp of u
        moves its flow by ~1e-12 of the demand; a plain rescale of that
        residual left a 1.8e-11 spread in the marginal costs."""
        a = np.array([99.0, 1.0, 0.5, 0.0, 0.4533370631457485])
        t = np.array([20.0, 0.45285546495300943, 20.0, 0.0, 0.0])
        demand = 5.047666853157288
        f = delayed_best_response(a, t, demand)
        assert_kkt(a, t, f * demand, demand, rtol=1e-13)

    @given(
        kkt_rates,
        kkt_delays,
        st.floats(0.05, 0.95),
        st.sampled_from([2.0, 7.0, 400.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_class_fill_with_offset_satisfies_member_kkt(
        self, rates, delays, frac, count
    ):
        n = min(len(rates), len(delays))
        a = np.asarray(rates[:n])
        t = np.asarray(delays[:n])
        cap = float(a[a > 0.0].sum())
        assume(cap > 0.0)
        fill = _symmetric_class_fill(a, frac * cap, count, offset=t)
        assert_kkt(a, t, fill.flows, frac * cap, count)


class TestDelayedGame:
    @pytest.fixture(scope="class")
    def system(self):
        return paper_table1_system(utilization=0.6, n_users=4)

    def test_delay_broadcasting(self, system):
        game = DelayedGame(system, np.full(system.n_computers, 0.1))
        assert game.delays.shape == (4, 16)

    def test_delay_validation(self, system):
        with pytest.raises(ValueError):
            DelayedGame(system, np.full((2, 16), 0.1))
        with pytest.raises(ValueError):
            DelayedGame(system, np.full((4, 16), -0.1))

    def test_zero_delay_game_matches_plain_nash(self):
        """Cross-path oracle: with no delay the delayed sweeps retrace the
        per-user NASH sweeps (the Newton fill against the closed-form
        water-fill), sweep for sweep."""
        for n_users in (4, 10):
            system = paper_table1_system(utilization=0.6, n_users=n_users)
            game = DelayedGame(system, np.zeros((n_users, system.n_computers)))
            for tolerance in (1e-6, 1e-8, 1e-9):
                delayed = DelayedNashSolver(tolerance=tolerance).solve(game)
                plain = NashSolver(tolerance=tolerance).solve(system)
                case = (n_users, tolerance)
                assert delayed.converged and plain.converged, case
                assert delayed.iterations == plain.iterations, case
                np.testing.assert_allclose(
                    delayed.profile.fractions, plain.profile.fractions,
                    rtol=0, atol=1e-12, err_msg=str(case),
                )
                np.testing.assert_allclose(
                    delayed.user_costs, plain.user_times, rtol=1e-12,
                    err_msg=str(case),
                )

    def test_solve_emits_the_per_user_sweep_events(self, system):
        sink = InMemorySink()
        game = DelayedGame(system, np.full(system.n_computers, 0.05))
        with use_tracer(Tracer(sink)):
            result = DelayedNashSolver().solve(game)
        names = [e.name for e in sink.events]
        assert names[0] == "solver.start" and names[-1] == "solver.done"
        sweeps = [e for e in sink.events if e.name == "solver.sweep"]
        assert len(sweeps) == result.iterations
        # Every reply is a Newton fill now, so the sweeps count its work.
        assert all(e.fields["fill_iterations"] >= system.n_users for e in sweeps)
        assert all(e.fields["fill_cap_hits"] == 0 for e in sweeps)

    def test_converges_with_random_delays(self, system, rng):
        delays = rng.uniform(0.0, 0.05, size=(4, 16))
        game = DelayedGame(system, delays)
        result = DelayedNashSolver().solve(game)
        assert result.converged
        result.profile.validate(system)

    def test_equilibrium_no_profitable_deviation(self, system, rng):
        delays = rng.uniform(0.0, 0.03, size=(4, 16))
        game = DelayedGame(system, delays)
        result = DelayedNashSolver(tolerance=1e-10).solve(game)
        for j in range(4):
            available = system.available_rates(result.profile.fractions, j)
            reply = delayed_best_response(
                available, delays[j], float(system.arrival_rates[j])
            )
            cost_now = result.user_costs[j]
            cost_reply = delayed_cost(
                available, delays[j], reply, float(system.arrival_rates[j])
            )
            assert cost_now <= cost_reply + 1e-6

    def test_uniform_delay_shifts_costs_uniformly(self, system):
        """A constant delay added everywhere cannot change the equilibrium
        routing — only everyone's cost, by exactly that delay."""
        base = DelayedNashSolver(tolerance=1e-9).solve(
            DelayedGame(system, np.zeros((4, 16)))
        )
        shifted = DelayedNashSolver(tolerance=1e-9).solve(
            DelayedGame(system, np.full((4, 16), 0.25))
        )
        np.testing.assert_allclose(
            shifted.user_costs, base.user_costs + 0.25, rtol=1e-6
        )
        np.testing.assert_allclose(
            shifted.profile.fractions, base.profile.fractions, atol=1e-6
        )

    def test_overall_cost_weighted(self, system):
        game = DelayedGame(system, np.full((4, 16), 0.1))
        profile = StrategyProfile.proportional(system)
        expected = float(
            game.user_costs(profile) @ system.arrival_rates
            / system.total_arrival_rate
        )
        assert game.overall_cost(profile) == pytest.approx(expected)

    def test_solver_validation(self):
        with pytest.raises(ValueError):
            DelayedNashSolver(tolerance=0.0)
        with pytest.raises(ValueError):
            DelayedNashSolver(max_sweeps=0)

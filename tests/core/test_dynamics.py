"""Tests for the dynamic re-balancing driver (paper Sec. 3/Sec. 5 extension)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.dynamics import run_dynamic_balancing
from repro.core.equilibrium import is_nash_equilibrium
from repro.workloads.configs import paper_table1_system


def drifting_systems(n_episodes=4, base=0.5, step=0.05, n_users=4):
    """Slowly increasing load, as a periodically re-run NASH would see."""
    return [
        paper_table1_system(utilization=base + step * k, n_users=n_users)
        for k in range(n_episodes)
    ]


class TestDynamicBalancing:
    def test_every_episode_converges(self):
        result = run_dynamic_balancing(drifting_systems())
        assert result.all_converged
        assert len(result.episodes) == 4

    def test_episode_equilibria_verified(self):
        result = run_dynamic_balancing(drifting_systems(), tolerance=1e-9)
        for episode in result.episodes:
            assert is_nash_equilibrium(
                episode.system, episode.result.profile, tol=1e-5
            )

    def test_warm_start_saves_iterations(self):
        systems = drifting_systems(n_episodes=5, step=0.02)
        warm = run_dynamic_balancing(systems, warm_start=True)
        cold = run_dynamic_balancing(systems, warm_start=False)
        # After the first episode, warm starting from the neighbouring
        # equilibrium must not be slower overall.
        assert (
            warm.iterations_per_episode[1:].sum()
            <= cold.iterations_per_episode[1:].sum()
        )

    def test_first_episode_identical_regardless_of_warm_start(self):
        systems = drifting_systems(n_episodes=2)
        warm = run_dynamic_balancing(systems, warm_start=True)
        cold = run_dynamic_balancing(systems, warm_start=False)
        assert (
            warm.iterations_per_episode[0] == cold.iterations_per_episode[0]
        )

    def test_trajectory_shape(self):
        systems = drifting_systems(n_episodes=3, n_users=4)
        result = run_dynamic_balancing(systems)
        assert result.user_time_trajectory.shape == (3, 4)

    def test_rising_load_raises_times(self):
        result = run_dynamic_balancing(drifting_systems(step=0.08))
        trajectory = result.user_time_trajectory.mean(axis=1)
        assert np.all(np.diff(trajectory) > 0.0)

    def test_user_population_change_falls_back_to_cold(self):
        systems = [
            paper_table1_system(utilization=0.5, n_users=4),
            paper_table1_system(utilization=0.5, n_users=6),
        ]
        result = run_dynamic_balancing(systems, warm_start=True)
        assert result.all_converged
        assert result.episodes[1].result.profile.n_users == 6

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_dynamic_balancing([])

    def test_cold_init_choices(self):
        systems = drifting_systems(n_episodes=2)
        for init in ("zero", "proportional", "uniform"):
            result = run_dynamic_balancing(
                systems, warm_start=False, cold_init=init
            )
            assert result.all_converged

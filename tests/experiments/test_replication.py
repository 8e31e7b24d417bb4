"""Tests for the parallel replication layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.replication import (
    _chunk_bounds,
    simulate_batch_parallel,
)
from repro.schemes import NashScheme
from repro.simengine.fastpath import simulate_profile_fast_batch
from repro.simengine.rng import replication_seeds
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def study():
    system = paper_table1_system(utilization=0.6, n_users=6)
    profile = NashScheme().allocate(system).profile
    return system, profile


def _assert_results_equal(actual, expected):
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        np.testing.assert_array_equal(
            a.user_mean_response_times, b.user_mean_response_times
        )
        np.testing.assert_array_equal(a.user_job_counts, b.user_job_counts)
        np.testing.assert_array_equal(
            a.computer_utilizations, b.computer_utilizations
        )
        np.testing.assert_array_equal(
            a.computer_job_counts, b.computer_job_counts
        )


class TestSeedSlices:
    def test_seed_slice_matches_batch_slice(self, study):
        # The chunking property the parallel layer relies on: a run's
        # results depend only on its own seed, so any contiguous seed
        # slice reproduces the full batch's corresponding results.
        system, profile = study
        seeds = replication_seeds(7, 5)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds
        )
        sliced = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds[2:5]
        )
        _assert_results_equal(sliced, baseline[2:5])


class TestSimulateBatchParallel:
    def test_serial_path_matches_plain_batch(self, study):
        system, profile = study
        seeds = replication_seeds(11, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, warmup=5.0, seeds=seeds
        )
        serial = simulate_batch_parallel(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            n_workers=1,
        )
        _assert_results_equal(serial, baseline)

    def test_parallel_bit_identical_to_serial(self, study):
        system, profile = study
        seeds = replication_seeds(11, 5)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, warmup=5.0, seeds=seeds
        )
        parallel = simulate_batch_parallel(
            system,
            profile,
            horizon=50.0,
            warmup=5.0,
            seeds=seeds,
            n_workers=2,
        )
        _assert_results_equal(parallel, baseline)

    def test_parallel_no_warmup_bit_identical(self, study):
        system, profile = study
        seeds = replication_seeds(11, 4)
        baseline = simulate_profile_fast_batch(
            system, profile, horizon=50.0, seeds=seeds
        )
        parallel = simulate_batch_parallel(
            system,
            profile,
            horizon=50.0,
            seeds=seeds,
            n_workers=2,
        )
        _assert_results_equal(parallel, baseline)

    def test_rejects_bad_inputs(self, study):
        system, profile = study
        with pytest.raises(ValueError, match="seeds"):
            simulate_batch_parallel(
                system, profile, horizon=10.0, seeds=[], n_workers=2
            )
        with pytest.raises(ValueError, match="n_workers"):
            simulate_batch_parallel(
                system, profile, horizon=10.0, seeds=[1, 2], n_workers=0
            )


class TestChunkBounds:
    def test_covers_all_runs_contiguously(self):
        for n_runs in (1, 2, 5, 7, 16):
            for n_chunks in (1, 2, 3, 8, 32):
                bounds = _chunk_bounds(n_runs, n_chunks)
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n_runs
                for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                    assert stop == start
                sizes = [stop - start for start, stop in bounds]
                assert max(sizes) - min(sizes) <= 1
                assert min(sizes) >= 1


class TestSimValidationWorkers:
    def test_run_accepts_n_workers_and_matches_serial(self):
        from repro.experiments.sim_validation import run

        serial = run(horizon=40.0, warmup=4.0, n_replications=3, n_workers=1)
        parallel = run(
            horizon=40.0, warmup=4.0, n_replications=3, n_workers=2
        )
        assert serial.rows == parallel.rows

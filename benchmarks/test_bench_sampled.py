"""SAMPLED-NASH — power-of-k sampled replies vs full information.

Two measurements, one group:

* ``test_bench_knash_fullinfo`` / ``test_bench_knash_sampled`` — the
  same fixed-budget class-space solve (zero init, identical order and
  seed) with exact full-information replies versus ``sample_k=2``
  power-of-k replies.  The recorded ``test_bench_knash`` ratio is the
  wall-clock side of sampling; the poll counts asserted below are the
  information side (``k`` probes per class per sweep instead of ``n``).
* ``test_bench_sampled_msg_reduction`` — the ring protocol's per-sweep
  message cost (token hops + availability polls) at ``k=2`` versus the
  same driver at ``k=n``, recorded as the ``sampled_msg_reduction``
  ratio CI gates at >= 10x via ``FLOORS`` in ``bench_gate.py``
  (measured ~20x; see
  docs/PERFORMANCE.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classes import ClassNashSolver, aggregate_users
from repro.core.model import DistributedSystem
from repro.distributed.sampled import run_sampled_nash_protocol

sampled_nash = pytest.mark.benchmark(group="sampled-nash")

#: Class-space solve shape: large enough that one sweep observes 128k
#: computer states under full information, small enough for CI.
N_COMPUTERS = 4_000
N_CLASSES = 32
USERS_PER_CLASS = 250
MAX_SWEEPS = 60
SAMPLE_K = 2

#: Ring-protocol shape for the message-economics measurement.
PROTOCOL_COMPUTERS = 64
PROTOCOL_USERS = 24


def _aggregation():
    rng = np.random.default_rng(11)
    mu = np.exp(rng.uniform(np.log(10.0), np.log(100.0), size=N_COMPUTERS))
    total = 0.6 * mu.sum()
    shares = rng.dirichlet(np.full(N_CLASSES, 4.0))
    class_rates = np.maximum(shares, 0.1 / N_CLASSES) * total
    class_rates *= total / (class_rates.sum() * USERS_PER_CLASS)
    system = DistributedSystem(
        service_rates=mu,
        arrival_rates=np.repeat(class_rates, USERS_PER_CLASS),
    )
    return aggregate_users(system)


def _solve(aggregation, sample_k: int):
    solver = ClassNashSolver(
        tolerance=1e-12,
        max_sweeps=MAX_SWEEPS,
        order="random",
        seed=11,
        sample_k=sample_k,
    )
    return solver.solve(aggregation, init="zero")


@sampled_nash
def test_bench_knash_fullinfo(benchmark):
    aggregation = _aggregation()
    result = benchmark.pedantic(
        lambda: _solve(aggregation, N_COMPUTERS), rounds=3, iterations=1
    )
    assert result.iterations == MAX_SWEEPS
    certificate = result.sample
    assert certificate is not None and certificate.full_information
    assert certificate.polls == MAX_SWEEPS * N_CLASSES * N_COMPUTERS


@sampled_nash
def test_bench_knash_sampled(benchmark):
    aggregation = _aggregation()
    result = benchmark.pedantic(
        lambda: _solve(aggregation, SAMPLE_K), rounds=3, iterations=1
    )
    assert result.iterations == MAX_SWEEPS
    certificate = result.sample
    assert certificate is not None and not certificate.full_information
    # The information economics: orders of magnitude fewer observations
    # than the m·n-per-sweep full-information budget.
    assert certificate.polls * 10 < MAX_SWEEPS * N_CLASSES * N_COMPUTERS


@sampled_nash
def test_bench_sampled_msg_reduction(benchmark, record_speedup):
    rng = np.random.default_rng(12)
    mu = np.exp(
        rng.uniform(np.log(10.0), np.log(100.0), size=PROTOCOL_COMPUTERS)
    )
    system = DistributedSystem(
        service_rates=mu,
        arrival_rates=np.full(
            PROTOCOL_USERS, 0.6 * mu.sum() / PROTOCOL_USERS
        ),
    )

    def run_pair():
        sampled = run_sampled_nash_protocol(system, sample_k=SAMPLE_K, seed=12)
        baseline = run_sampled_nash_protocol(
            system, sample_k=PROTOCOL_COMPUTERS, seed=12
        )
        return sampled, baseline

    sampled, baseline = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert sampled.result.converged and baseline.result.converged
    per_sweep = sampled.messages_sent / sampled.result.iterations
    baseline_per_sweep = baseline.messages_sent / baseline.result.iterations
    reduction = baseline_per_sweep / per_sweep
    record_speedup("sampled_msg_reduction", reduction)
    assert reduction >= 10.0

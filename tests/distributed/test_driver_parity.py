"""The four protocol drivers run one ring: equal inputs, equal runs.

Earlier cross-driver tests compared profiles to a tolerance; these pin
the stronger property that the drivers share one pump — equal
transcripts, equal message accounting and bit-equal profiles wherever
their fault models coincide.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.chaos import run_nash_protocol_resilient
from repro.distributed.faults import run_nash_protocol_lossy
from repro.distributed.runtime import run_nash_protocol
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def system():
    return paper_table1_system(utilization=0.6, n_users=8)


def test_fault_free_drivers_run_the_same_ring(system):
    reliable = run_nash_protocol(system)
    lossy = run_nash_protocol_lossy(system, drop=0.0, duplicate=0.0)
    resilient = run_nash_protocol_resilient(system, None)
    for other in (lossy, resilient):
        assert other.transcript == reliable.transcript
        assert other.messages_sent == reliable.messages_sent
        assert other.retransmissions == 0
        np.testing.assert_array_equal(
            other.result.norm_history, reliable.result.norm_history
        )
        np.testing.assert_array_equal(
            other.result.profile.fractions, reliable.result.profile.fractions
        )


@pytest.mark.parametrize("fault_seed", [0, 1])
@pytest.mark.parametrize("drop, duplicate", [(0.1, 0.0), (0.0, 0.2), (0.3, 0.3)])
def test_resilient_without_schedule_replays_the_lossy_run(
    system, drop, duplicate, fault_seed
):
    faults = dict(drop=drop, duplicate=duplicate, fault_seed=fault_seed)
    lossy = run_nash_protocol_lossy(system, **faults)
    resilient = run_nash_protocol_resilient(system, None, **faults)
    # messages_sent may differ: the lossy pump also drains duplicates that
    # arrive after termination, the supervisor stops at termination.
    assert resilient.transcript == lossy.transcript
    assert resilient.retransmissions == lossy.retransmissions
    np.testing.assert_array_equal(
        resilient.result.profile.fractions, lossy.result.profile.fractions
    )

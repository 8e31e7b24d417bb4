"""The reference loop and the calibrated throughput built on it."""

import pytest

from perfbench import calibration, harness
from perfbench.workloads import Outcome


def test_after_batch_runs_at_least_one_unit_and_its_share():
    assert len(calibration.after_batch(0.0)) == 1
    times = calibration.after_batch(4.0)
    assert sum(times) >= calibration.SHARE * 4.0
    assert sum(times[:-1]) < calibration.SHARE * 4.0


def test_slowdown_is_mean_unit_time_over_nominal():
    nominal = calibration.NOMINAL_S
    assert calibration.slowdown([nominal] * 3) == pytest.approx(1.0)
    assert calibration.slowdown([nominal, 3 * nominal]) == pytest.approx(2.0)


def test_calibrated_throughput_divides_the_slowdown_out():
    nominal = calibration.NOMINAL_S
    outcomes = [Outcome(0.5), Outcome(1.5)]
    setup = harness.SetUp(None, [1.0, 3.0], [0.5, 0.5], [1.0, 2.0])
    for slow in (1.0, 1.25):
        loop = harness.Loop(outcomes, 2, 2.0, [slow * nominal] * 4)
        metrics = {m.name: m.value for m in harness.end_to_end(loop, setup)}
        raw = {m.name: m.value for m in harness.wall_clock(loop, setup)}
        assert raw["ops_per_s"] == pytest.approx(1.0)
        assert raw["slowdown"] == pytest.approx(slow)
        assert metrics["ops_per_cal_s"] == pytest.approx(slow)
        # Each set-up repetition is divided by the slowdown measured after it.
        assert metrics["setup_s"] == pytest.approx((1.0 / 1.0 + 3.0 / 2.0) / 2)
        assert raw["setup_wall_s"] == pytest.approx(2.0)


def test_loop_records_reference_units_per_batch():
    from perfbench.workloads import ClassWorkload

    tiny = ClassWorkload("tiny-class", users=200, n_classes=4, computers=8, utilization=0.6)
    loop = harness.run_loop(tiny, tiny.build(1), batches=3)
    assert len(loop.unit_times) >= 3
    assert all(t > 0 for t in loop.unit_times)

"""The tail-percentile rule: report the highest percentile with at least
ten samples beyond it, together with the sample count."""

import pytest

from perfbench import stats


def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(list(reversed(samples)), 90) == 90


@pytest.mark.parametrize(
    ("n", "q", "beyond"),
    [(100, 90, 10), (99, 90, 9), (1000, 99, 10), (1000, 99.9, 1), (20, 50, 10)],
)
def test_samples_beyond(n, q, beyond):
    assert stats.samples_beyond(q, n) == beyond


@pytest.mark.parametrize(
    ("n", "q"),
    [(20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    samples = [float(i) for i in range(n)]
    tail = stats.tail(samples)
    assert tail is not None
    assert (tail.q, tail.n) == (q, n)
    assert tail.beyond >= stats.MIN_BEYOND
    assert tail.value == stats.percentile(samples, q)


@pytest.mark.parametrize("n", [0, 1, 19])
def test_no_tail_without_ten_samples_beyond(n):
    assert stats.tail([1.0] * n) is None


def test_median_rejects_empty():
    with pytest.raises(ValueError):
        stats.median([])
    assert stats.median([3.0, 1.0, 2.0]) == 2.0

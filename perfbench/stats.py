"""Latency summaries: medians and the tail-percentile rule.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples
lie beyond it; fewer makes the value one or two unlucky samples, not a
tail.  Percentiles use the nearest-rank definition so that the count of
samples beyond a percentile is exact and testable.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Candidate percentiles, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    # round() strips float noise such as 0.9 * 100 == 90.00000000000001.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def samples_beyond(q: float, n: int) -> int:
    """How many of ``n`` sorted samples rank above percentile ``q``."""
    return n - _rank(q, n)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


@dataclass(frozen=True)
class Tail:
    """The highest candidate percentile with enough samples beyond it."""

    q: float
    value: float
    n: int
    beyond: int


def tail(samples: Sequence[float]) -> Tail | None:
    """Highest percentile in ``PERCENTILES`` with ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the lowest has too few."""
    n = len(samples)
    best: Tail | None = None
    for q in PERCENTILES:
        beyond = samples_beyond(q, n) if n else 0
        if beyond >= MIN_BEYOND:
            best = Tail(q=q, value=percentile(samples, q), n=n, beyond=beyond)
    return best


@dataclass(frozen=True)
class Metric:
    """A reported value with its unit and the number of samples behind it."""

    name: str
    value: float
    unit: str
    n: int


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("no samples")
    return float(statistics.median(samples))

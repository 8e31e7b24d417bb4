"""A fixed reference loop that states throughput at a fixed machine speed.

A shared machine's speed drifts by 10-25% over spells of seconds to
minutes, and a 15 s run sits inside one spell, so wall-clock throughput
spreads from run to run by about as much as the drift.  The untimed gap
after every batch runs this reference loop for about ``SHARE`` of the
batch's time.  Over a run, the loop's mean time per unit against
``NOMINAL_S`` says how slow the machine was while the batches ran, and
the calibrated throughput divides that slowness back out.

The loop uses only Python and numpy, never the program, so no change to
the program can move it.  It mixes the kinds of work the workloads do:
interpreter-bound Python around many small numpy calls, and
whole-array passes over 8 MB that miss the caches.  Over ten 15 s runs
each, the run-to-run spread (IQR/median) of throughput was 0.15 on
``class-saturated`` and 0.17 on ``engine-churn``; calibrated with this
mix it was 0.08 on both, with the small-call half alone 0.10 and 0.06,
and with the array half alone 0.13 and 0.11.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Seconds one unit takes on a quiet 2-vCPU Intel Xeon at 2.1 GHz
#: (Python 3.11, numpy 2.4); only the scale of calibrated figures
#: depends on it.
NOMINAL_S = 0.055
#: Reference time after a batch, as a share of the batch's time.
SHARE = 0.05

_BIG = np.random.default_rng(0).random(1 << 20)


def unit() -> float:
    """Run one unit of reference work; return its seconds."""
    started = perf_counter()
    rng = np.random.default_rng(1)
    table: dict[int, float] = {}
    total = 0.0
    for i in range(3000):
        ordered = np.sort(rng.random(64))
        total += float(np.cumsum(ordered)[-1])
        table[i % 97] = total
        for j in range(40):
            total += j * j
    for _ in range(2):
        total += float(np.sort(_BIG)[100]) + float(np.cumsum(_BIG)[-1])
    return perf_counter() - started


def after_batch(batch_s: float) -> list[float]:
    """Unit times of the reference work run after a ``batch_s`` batch:
    at least one unit, and at least ``SHARE * batch_s`` seconds."""
    times = [unit()]
    while sum(times) < SHARE * batch_s:
        times.append(unit())
    return times


def slowdown(unit_times: list[float]) -> float:
    """How much slower than nominal the machine ran: the mean unit time
    over ``NOMINAL_S``.  Units follow batches in proportion to their
    time, so a slow spell weighs as much as the batches it slowed."""
    return statistics.fmean(unit_times) / NOMINAL_S

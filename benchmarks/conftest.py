"""Benchmark harness configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Each benchmark regenerates one paper artifact (table/figure) end to end,
times the regeneration with pytest-benchmark, asserts the paper's
qualitative claims about it, and prints the reproduced rows (add ``-s``
to see them inline).

After a benchmark session this plugin serializes the gated timings
(group ``nash-core``: the NASH solver, OPTIMAL, the batched water-fill
kernel, the Lindley fastpath; group ``sim-fastpath``: batched
replications and warm-started sweeps; group ``engine-churn``: the
online engine's incremental re-equilibration versus cold re-solves
over a churn trace; group ``class-scale``: million-user solves in
user-class space and the fixed-budget per-user versus class-space
pair; group ``sampled-nash``: power-of-k sampled versus
full-information class solves and the sampled ring's message
reduction) into ``BENCH_nash.json`` at the repo root — the
perf-regression trajectory CI gates on (see ``benchmarks/bench_gate.py``
and docs/PERFORMANCE.md).  Baseline/optimized benchmark pairs — names
differing only in a ``_legacy``/``_vectorized``, ``_looped``/``_batched``,
``_cold``/``_warm``, ``_peruser``/``_classspace`` or
``_fullinfo``/``_sampled`` suffix — additionally record their speedup
ratio.  Benchmarks may also record non-timing ratios (e.g. the sampled
protocol's message reduction) through the ``record_speedup`` fixture;
they land in the same ``speedups`` mapping the gate applies floors to.
The file also records the ``environment`` it was measured in, which the
gate compares against the baseline's.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform

import pytest

#: Benchmark groups serialized into the BENCH JSON.
BENCH_GROUPS = (
    "nash-core",
    "sim-fastpath",
    "engine-churn",
    "class-scale",
    "sampled-nash",
)
#: Baseline/optimized name-suffix pairs recorded as speedups
#: (baseline suffix first; speedup = baseline mean / optimized mean).
SPEEDUP_SUFFIXES = (
    ("_legacy", "_vectorized"),
    ("_looped", "_batched"),
    ("_cold", "_warm"),
    ("_peruser", "_classspace"),
    ("_fullinfo", "_sampled"),
)
#: Non-timing ratios recorded by benchmarks via the ``record_speedup``
#: fixture; merged into the serialized ``speedups`` mapping.
EXTRA_SPEEDUPS: dict[str, float] = {}
#: Default output path (repo root); override with the env var.
BENCH_ENV_VAR = "BENCH_NASH_JSON"
BENCH_DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_nash.json"


def emit(table) -> None:
    """Print a reproduced artifact (visible with ``pytest -s``)."""
    print()
    print(table.to_ascii())


@pytest.fixture
def show():
    return emit


@pytest.fixture
def record_speedup():
    """Record a named non-timing ratio into the BENCH JSON speedups."""

    def record(key: str, value: float) -> None:
        EXTRA_SPEEDUPS[key] = float(value)

    return record


def _environment() -> dict:
    """The machine and package versions a benchmark file was measured with."""
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _serialize(benchmarks) -> dict:
    """Build the BENCH JSON payload from pytest-benchmark metadata."""
    entries = []
    for bench in benchmarks:
        stats = getattr(bench, "stats", None)
        if stats is None or getattr(bench, "group", None) not in BENCH_GROUPS:
            continue
        entries.append(
            {
                "name": bench.name,
                "group": bench.group,
                "mean": float(stats.mean),
                "min": float(stats.min),
                "median": float(stats.median),
                "stddev": float(stats.stddev),
                "rounds": int(stats.rounds),
            }
        )
    entries.sort(key=lambda e: e["name"])
    means = {e["name"]: e["mean"] for e in entries}
    speedups = {}
    for name, mean in means.items():
        for slow_suffix, fast_suffix in SPEEDUP_SUFFIXES:
            if not name.endswith(slow_suffix):
                continue
            partner = name[: -len(slow_suffix)] + fast_suffix
            if partner in means and means[partner] > 0.0:
                key = name[: -len(slow_suffix)].rstrip("_")
                speedups[key] = mean / means[partner]
    speedups.update(EXTRA_SPEEDUPS)
    return {
        "schema": 1,
        "environment": _environment(),
        "benchmarks": entries,
        "speedups": speedups,
    }


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    payload = _serialize(bench_session.benchmarks)
    if not payload["benchmarks"]:
        return
    path = pathlib.Path(os.environ.get(BENCH_ENV_VAR, BENCH_DEFAULT))
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {len(payload['benchmarks'])} gated timings to {path}")

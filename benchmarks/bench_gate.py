"""Perf-regression gate over ``BENCH_nash.json`` snapshots.

Compares a freshly generated benchmark JSON (written by the session
plugin in ``benchmarks/conftest.py``) against the committed baseline and
fails when

* any shared benchmark regressed by more than ``--max-ratio``
  (default 2x — generous because CI machines are noisy; the trajectory,
  not single-digit percents, is what the gate protects);
* any recorded speedup fell below its entry in :data:`FLOORS`, matched
  by exact key;
* any recorded speedup has no entry in :data:`FLOORS` — a new pair must
  come with its floor.

It also prints one line naming every ``environment`` field (cpu count,
python/numpy/scipy versions, machine) that differs between the two
files, so a cross-machine comparison is never silent.  That line does
not change the verdict.

Usage::

    python benchmarks/bench_gate.py \
        --baseline BENCH_nash.json --fresh /tmp/BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: Minimum ratio per recorded speedup key.  Timing pairs are the
#: baseline mean over the optimized mean (see ``SPEEDUP_SUFFIXES`` in
#: ``benchmarks/conftest.py``); ``sampled_msg_reduction`` is the sampled
#: ring protocol's per-sweep message reduction.
FLOORS: dict[str, float] = {
    "test_bench_nash_m1000_n64_simultaneous": 10.0,
    "test_bench_replications_r16": 4.0,
    "test_bench_fig4_sweep": 2.0,
    "test_bench_engine_churn": 2.0,
    "test_bench_class_scale_m1e5": 5.0,
    "sampled_msg_reduction": 10.0,
    "test_bench_knash": 1.0,
    "test_bench_nash_m1000_n64_roundrobin": 1.5,
}


def _load(path: pathlib.Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"bench-gate: missing benchmark file {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"bench-gate: invalid JSON in {path}: {exc}")
    if "benchmarks" not in payload:
        raise SystemExit(f"bench-gate: {path} has no 'benchmarks' key")
    return payload


def compare(baseline: dict, fresh: dict, *, max_ratio: float) -> list[str]:
    """Return a list of human-readable gate violations (empty = pass)."""
    failures = []
    base_means = {b["name"]: b["mean"] for b in baseline["benchmarks"]}
    fresh_means = {b["name"]: b["mean"] for b in fresh["benchmarks"]}
    for name in sorted(set(base_means) & set(fresh_means)):
        ratio = fresh_means[name] / base_means[name]
        if ratio > max_ratio:
            failures.append(
                f"{name}: {ratio:.2f}x slower than baseline "
                f"({fresh_means[name]:.6g}s vs {base_means[name]:.6g}s, "
                f"limit {max_ratio:g}x)"
            )
    for key, speedup in sorted(fresh.get("speedups", {}).items()):
        floor = FLOORS.get(key)
        if floor is None:
            failures.append(
                f"{key}: recorded speedup {speedup:.2f}x has no floor "
                f"in bench_gate.FLOORS"
            )
        elif speedup < floor:
            failures.append(
                f"{key}: recorded speedup {speedup:.2f}x fell below "
                f"the {floor:g}x floor"
            )
    return failures


def environment_changes(baseline: dict, fresh: dict) -> list[str]:
    """``field: baseline -> fresh`` for each differing environment field."""
    base_env = baseline.get("environment", {})
    fresh_env = fresh.get("environment", {})
    return [
        f"{field}: {base_env.get(field)} -> {fresh_env.get(field)}"
        for field in sorted(set(base_env) | set(fresh_env))
        if base_env.get(field) != fresh_env.get(field)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", type=pathlib.Path, required=True,
        help="committed BENCH_nash.json to compare against",
    )
    parser.add_argument(
        "--fresh", type=pathlib.Path, required=True,
        help="freshly generated BENCH_nash.json",
    )
    parser.add_argument("--max-ratio", type=float, default=2.0)
    args = parser.parse_args(argv)

    baseline = _load(args.baseline)
    fresh = _load(args.fresh)
    changes = environment_changes(baseline, fresh)
    if changes:
        print(f"bench-gate: environment differs ({'; '.join(changes)})")
    failures = compare(baseline, fresh, max_ratio=args.max_ratio)
    if failures:
        print("bench-gate: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    shared = {b["name"] for b in baseline["benchmarks"]} & {
        b["name"] for b in fresh["benchmarks"]
    }
    print(
        f"bench-gate: OK ({len(shared)} benchmarks within {args.max_ratio:g}x, "
        f"speedups {fresh.get('speedups', {})})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

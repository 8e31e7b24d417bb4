"""The perf-regression gate: exact-key floors and the environment note."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(speedups, environment=None):
    payload = {
        "schema": 1,
        "benchmarks": [{"name": "test_bench_x", "mean": 1.0}],
        "speedups": speedups,
    }
    if environment is not None:
        payload["environment"] = environment
    return payload


def test_floors_match_exact_keys(gate):
    floors = dict(gate.FLOORS)
    at_floor = _payload(floors)
    assert gate.compare(at_floor, at_floor, max_ratio=2.0) == []
    below = _payload({**floors, "test_bench_knash": 0.9})
    failures = gate.compare(at_floor, below, max_ratio=2.0)
    assert failures == [
        "test_bench_knash: recorded speedup 0.90x fell below the 1x floor"
    ]


def test_recorded_key_without_floor_fails(gate):
    # A key that merely contains a floored key as a substring is not
    # covered by that floor.
    fresh = _payload({"test_bench_knash_v2": 5.0})
    failures = gate.compare(fresh, fresh, max_ratio=2.0)
    assert len(failures) == 1
    assert "test_bench_knash_v2" in failures[0]
    assert "no floor" in failures[0]


def test_environment_difference_is_reported_not_gated(gate, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    base_env = {"cpu_count": 4, "numpy": "2.3.0", "python": "3.11.7"}
    fresh_env = {"cpu_count": 2, "numpy": "2.4.6", "python": "3.11.7"}
    baseline.write_text(json.dumps(_payload({}, base_env)))
    fresh.write_text(json.dumps(_payload({}, fresh_env)))
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "bench-gate: environment differs "
        "(cpu_count: 4 -> 2; numpy: 2.3.0 -> 2.4.6)"
    )
    assert lines[1].startswith("bench-gate: OK")

"""Op and job counting, the traced replay, and the metric names that
``BENCHMARK.json`` promises."""

import json
from contextlib import contextmanager
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.tracing import Recorder
from perfbench.workloads import (
    OPS,
    POLICY,
    REPLICATION,
    STATIC,
    ClassWorkload,
    EngineWorkload,
    SimWorkload,
    _seq,
    churn_day,
    class_instance,
)
from repro.core import classes
from repro.telemetry.trace import Tracer, use_tracer

ROOT = Path(__file__).resolve().parents[2]
TINY_CLASS = ClassWorkload("tiny-class", users=200, n_classes=4, computers=8, utilization=0.6)
TINY_ENGINE = EngineWorkload(users=4, day_epochs=8)
TINY_SIM = SimWorkload(
    static_horizon=20.0, policy_horizon=4.0, replication_horizon=40.0, replications=2
)


def _traced(workload, seed, batches):
    state = workload.build(seed)
    recorder, tracer = Recorder(), Tracer()
    with recorder.installed(), use_tracer(tracer):
        loop = harness.run_loop(workload, state, batches=batches)
    return loop, recorder, tracer


def test_class_ops_and_layer_calls_are_counted():
    loop, recorder, _ = _traced(TINY_CLASS, 5, 4)
    assert (loop.batches, loop.attempted, loop.failed) == (4, 4, 0)
    table = recorder.busy_and_self()
    for layer in ("aggregate", "class_solve", "class_certify", "bench.generate"):
        assert table[layer][0] == 4
    assert recorder.stats["aggregate"]["users"] == 4 * 200


def test_engine_counts_one_op_per_epoch():
    loop, recorder, _ = _traced(TINY_ENGINE, 5, 2)
    assert (loop.batches, loop.attempted, loop.failed) == (2, 16, 0)
    calls, busy, own = recorder.busy_and_self()["engine"]
    assert calls == 16 and 0.0 < own < busy
    assert recorder.stats["engine"]["solved"] == 16


def test_sim_jobs_are_counted_per_kind():
    loop, recorder, _ = _traced(TINY_SIM, 5, 2)
    assert (loop.batches, loop.attempted) == (2, 2)
    jobs = {k: sum(o.jobs[k] for o in loop.outcomes) for k in (STATIC, POLICY, REPLICATION)}
    assert jobs[STATIC] == recorder.stats["simulator.static"]["jobs"] > 0
    assert jobs[POLICY] == recorder.stats["simulator.policy"]["jobs"] > 0
    assert jobs[REPLICATION] == recorder.stats["fastpath"]["jobs"] > 0
    assert recorder.stats["fastpath"]["replications"] == 2 * 2
    table = recorder.busy_and_self()
    assert table["simulator.static"][0] == 2 * 2
    assert table["simulator.policy"][0] == 2 * 3
    assert table["schemes"][0] == 2 * 2


def test_same_seed_same_inputs():
    def instance(seed):
        system = class_instance(_seq(seed, OPS, 2), 200, 4, 8, 0.6)
        return system.service_rates.tolist(), system.arrival_rates.tolist()

    assert instance(4) == instance(4)
    assert instance(4) != instance(5)
    assert repr(churn_day(_seq(4, OPS, 0), 8)) == repr(churn_day(_seq(4, OPS, 0), 8))
    assert repr(churn_day(_seq(4, OPS, 0), 8)) != repr(churn_day(_seq(4, OPS, 1), 8))


def test_wrappers_are_removed_after_the_traced_run():
    original = classes.aggregate_users
    original_solve = vars(classes.ClassNashSolver)["solve"]
    with Recorder().installed():
        assert classes.aggregate_users is not original
    assert classes.aggregate_users is original
    assert vars(classes.ClassNashSolver)["solve"] is original_solve


def test_loop_needs_exactly_one_limit():
    with pytest.raises(ValueError):
        harness.run_loop(TINY_CLASS, 0)
    with pytest.raises(ValueError):
        harness.run_loop(TINY_CLASS, 0, seconds=1.0, batches=1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = harness.SetUp(None, [1.0, 2.0, 3.0], [0.5, 0.6, 0.7], [1.0, 1.0, 1.0])
    untraced = harness.run_loop(TINY_CLASS, 1, batches=2)
    traced, recorder, tracer = _traced(TINY_CLASS, 1, 2)
    e2e = harness.end_to_end(untraced, setup)
    layers = harness.per_layer(recorder, tracer.registry, traced, untraced, setup)
    assert [(m.name, m.unit) for m in e2e] == [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert [(m.name, m.unit) for m in layers] == [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert all(m.value > 0 for m in e2e)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """Only ``BENCHMARK.json`` and the benchmark's files: exit non-zero
    and print no result."""
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_paired_run_traces_only_the_second_copy():
    recorder, tracer = Recorder(), Tracer()

    @contextmanager
    def instrument(index):
        recorder.run = f"b{index}"
        with recorder.installed(), use_tracer(tracer):
            yield

    plain, traced = harness.run_paired(
        TINY_ENGINE, TINY_ENGINE.build(2), TINY_ENGINE.build(2), instrument, seconds=0.2
    )
    assert plain.batches == traced.batches >= 1
    assert plain.attempted == traced.attempted == 8 * plain.batches
    assert recorder.busy_and_self()["engine"][0] == traced.attempted
    assert {span.run for span in recorder.spans} == {f"b{i}" for i in range(traced.batches)}

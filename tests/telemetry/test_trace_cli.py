"""The ``repro-trace`` CLI: rendering, JSON mode, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.distributed.runtime import run_nash_protocol
from repro.engine import ComputerFailure, ComputerReopen, OnlineEquilibriumEngine
from repro.telemetry.analysis import engine_summary
from repro.telemetry.cli import main
from repro.telemetry.events import TraceEvent
from repro.telemetry.trace import trace_to_file, use_tracer
from repro.workloads.configs import paper_table1_system


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "run.trace.jsonl"
    system = paper_table1_system(utilization=0.6, n_users=4)
    with trace_to_file(path) as tracer, use_tracer(tracer):
        outcome = run_nash_protocol(system, tolerance=1e-8)
    return path, outcome


@pytest.fixture(scope="module")
def engine_traced_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "engine.trace.jsonl"
    system = paper_table1_system(utilization=0.6, n_users=4)
    with trace_to_file(path) as tracer:
        engine = OnlineEquilibriumEngine(system, tracer=tracer)
        run = engine.run(
            [(ComputerFailure(15),), (), (ComputerReopen(15),)]
        )
    return path, run


class TestSummary:
    def test_text_output(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "protocol.deliver" in out
        assert f"{outcome.messages_sent} messages" in out

    def test_json_output(self, traced_run, capsys):
        path, _ = traced_run
        assert main(["summary", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_events"] > 0
        assert "protocol.sweep" in payload["event_counts"]
        assert payload["metrics"] is not None

    def test_class_line_reports_fill_counters(self, tmp_path, capsys):
        from repro.core.classes import ClassNashSolver, aggregate_users
        from repro.core.model import DistributedSystem

        path = tmp_path / "class.trace.jsonl"
        system = DistributedSystem(
            service_rates=[20.0, 10.0, 5.0],
            arrival_rates=[2.0, 1.0, 2.0, 3.0, 1.0, 2.0],
        )
        with trace_to_file(path) as tracer:
            ClassNashSolver().solve(
                aggregate_users(system), "zero", tracer=tracer
            )
        assert main(["summary", str(path)]) == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("class-space:")
        ]
        assert line.endswith(" fill iterations / 0 cap hits")


class TestConvergence:
    def test_norms_match_run(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["convergence", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == outcome.result.iterations
        assert payload["norm_history"] == list(outcome.result.norm_history)
        assert payload["final_norm"] == outcome.result.norm_history[-1]

    def test_text_lists_each_iteration(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["convergence", str(path)]) == 0
        out = capsys.readouterr().out
        # Header plus one line per iteration.
        assert len(out.strip().splitlines()) == outcome.result.iterations + 1


class TestProtocol:
    def test_accounting(self, traced_run, capsys):
        path, outcome = traced_run
        assert main(["protocol", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (
            sum(payload["messages_by_kind"].values())
            == outcome.messages_sent
        )
        assert payload["outcome"]["driver"] == "reliable"


class TestEngineView:
    def test_text_output(self, engine_traced_run, capsys):
        path, run = engine_traced_run
        assert main(["engine", str(path)]) == 0
        out = capsys.readouterr().out
        assert "epochs: 4" in out
        # The empty epoch while computer 15 is down is still degraded.
        assert "degraded-mode windows: [1..2]" in out
        assert "all certified" in out
        assert "per-epoch histogram:" in out

    def test_json_output_matches_run(self, engine_traced_run, capsys):
        path, run = engine_traced_run
        assert main(["engine", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_epochs"] == run.n_epochs == 4
        assert payload["status_counts"] == {"degraded": 2, "ok": 2}
        assert payload["all_certified"] is True
        assert payload["warm_started"] == run.warm_epochs
        assert payload["total_sweeps"] == run.total_sweeps

    def test_engine_appears_in_summary(self, engine_traced_run, capsys):
        path, _ = engine_traced_run
        assert main(["summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "engine: 4 epochs (2 degraded-mode)" in out

    def test_trace_without_engine_data_exits_one(self, traced_run, capsys):
        path, _ = traced_run
        assert main(["engine", str(path)]) == 1
        assert "no engine data" in capsys.readouterr().err


class TestEngineSummaryRollup:
    @staticmethod
    def epoch(seq, **fields):
        return TraceEvent(seq, "engine.epoch", fields)

    def test_windows_and_sla_rollup(self):
        events = [
            self.epoch(0, index=0, status="ok", sweeps=20, certified=True),
            self.epoch(
                1, index=1, status="degraded", sweeps=8, certified=True,
                warm_started=True, sla_violations=2,
            ),
            self.epoch(
                2, index=2, status="exhausted", sweeps=0, certified=False,
                sla_violations=4, error="CapacityExhausted: offered 459",
            ),
            self.epoch(
                3, index=3, status="degraded", sweeps=4, certified=True,
                warm_started=True,
            ),
            self.epoch(4, index=4, status="ok", sweeps=2, certified=True),
        ]
        summary = engine_summary(events)
        assert summary["n_epochs"] == 5
        assert summary["degraded_windows"] == [[1, 3]]
        assert summary["degraded_mode_epochs"] == 3
        assert summary["sla_violations"] == 6
        assert summary["sla_violation_epochs"] == 2
        # Exhausted epochs are not solvable: certification unaffected.
        assert summary["solvable_epochs"] == 4
        assert summary["all_certified"] is True
        assert summary["warm_started"] == 2
        assert summary["errors"] == ["CapacityExhausted: offered 459"]

    def test_sweeps_histogram_buckets_are_powers_of_two(self):
        events = [
            self.epoch(i, index=i, status="ok", sweeps=s, certified=True)
            for i, s in enumerate((0, 1, 3, 9, 300))
        ]
        summary = engine_summary(events)
        assert summary["sweeps_histogram"] == {
            "0": 1, "1": 1, "3-4": 1, "9-16": 1, ">256": 1,
        }
        assert summary["total_sweeps"] == 313

    def test_uncertified_solvable_epoch_flips_all_certified(self):
        events = [
            self.epoch(0, index=0, status="ok", sweeps=5, certified=False),
        ]
        assert engine_summary(events)["all_certified"] is False

    def test_empty_trace(self):
        summary = engine_summary([])
        assert summary["n_epochs"] == 0
        assert summary["degraded_windows"] == []
        assert summary["all_certified"] is True


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "repro-trace:" in capsys.readouterr().err

    def test_corrupt_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["summary", str(path)]) == 2

    def test_empty_view_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["convergence", str(path)]) == 1
        assert "no convergence data" in capsys.readouterr().err

    def test_solver_only_trace_has_no_protocol_data(
        self, tmp_path, capsys
    ):
        from repro.core.nash import compute_nash_equilibrium

        path = tmp_path / "solver.trace.jsonl"
        system = paper_table1_system(utilization=0.6, n_users=4)
        with trace_to_file(path) as tracer, use_tracer(tracer):
            compute_nash_equilibrium(system, tolerance=1e-8)
        assert main(["protocol", str(path)]) == 1
        assert main(["convergence", str(path)]) == 0  # solver.sweep works

    def test_module_entry_point(self, traced_run):
        import subprocess
        import sys

        path, _ = traced_run
        proc = subprocess.run(
            [sys.executable, "-m", "repro.telemetry", "summary", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "events:" in proc.stdout

"""Tests for the experiment table infrastructure."""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    ExperimentTable,
    run_schemes,
    run_schemes_sweep,
)


def make_table():
    return ExperimentTable(
        experiment_id="X",
        title="demo",
        columns=("a", "b"),
        rows=({"a": 1, "b": 2.5}, {"a": 3}),
        notes=("hello",),
    )


class TestExperimentTable:
    def test_column_access(self):
        table = make_table()
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2.5, None]

    def test_column_unknown(self):
        with pytest.raises(KeyError):
            make_table().column("zzz")

    def test_unknown_row_keys_rejected(self):
        with pytest.raises(ValueError):
            ExperimentTable(
                experiment_id="X",
                title="demo",
                columns=("a",),
                rows=({"a": 1, "oops": 2},),
            )

    def test_ascii_rendering(self):
        text = make_table().to_ascii()
        assert "== X: demo ==" in text
        assert "note: hello" in text
        assert "2.5" in text
        assert "-" in text  # missing cell placeholder

    def test_csv_rendering(self):
        csv_text = make_table().to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "3,"

    def test_save_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        make_table().save_csv(path)
        assert path.read_text().startswith("a,b")


class TestRunSchemes:
    def test_default_schemes(self, table1_small):
        results = run_schemes(table1_small)
        assert set(results) == {"NASH", "GOS", "IOS", "PS"}

    def test_explicit_schemes(self, table1_small):
        from repro.schemes import ProportionalScheme

        results = run_schemes(table1_small, [ProportionalScheme()])
        assert set(results) == {"PS"}

    def test_duplicate_schemes_rejected(self, table1_small):
        from repro.schemes import ProportionalScheme

        with pytest.raises(ValueError):
            run_schemes(
                table1_small, [ProportionalScheme(), ProportionalScheme()]
            )


def _assert_sweeps_identical(serial, parallel):
    import numpy as np

    assert [p for p, _ in serial] == [p for p, _ in parallel]
    for (_, a), (_, b) in zip(serial, parallel):
        assert set(a) == set(b)
        for name in a:
            assert a[name].overall_time == b[name].overall_time
            assert a[name].fairness == b[name].fairness
            np.testing.assert_array_equal(
                a[name].profile.fractions, b[name].profile.fractions
            )


class TestRunSchemesSweep:
    def test_serial_sweep_preserves_order(self):
        from repro.workloads.sweeps import sweep_points

        points = sweep_points("utilization", [0.3, 0.5], n_users=4)
        results = run_schemes_sweep(points)
        assert [param for param, _ in results] == [0.3, 0.5]
        for _, by_scheme in results:
            assert set(by_scheme) == {"NASH", "GOS", "IOS", "PS"}

    def test_parallel_matches_serial(self):
        from repro.workloads.sweeps import sweep_points

        points = sweep_points("utilization", [0.2, 0.4, 0.6], n_users=4)
        serial = run_schemes_sweep(points)
        parallel = run_schemes_sweep(points, n_workers=2)
        assert [p for p, _ in serial] == [p for p, _ in parallel]

    def test_parallel_bit_identical_to_serial(self):
        from repro.workloads.sweeps import sweep_points

        points = sweep_points("utilization", [0.2, 0.4, 0.6], n_users=4)
        _assert_sweeps_identical(
            run_schemes_sweep(points), run_schemes_sweep(points, n_workers=2)
        )

    def test_parallel_bit_identical_with_custom_names(self):
        from repro.core.model import DistributedSystem

        points = [
            (
                scale,
                DistributedSystem(
                    service_rates=[10.0, 5.0, 2.0],
                    arrival_rates=[2.0 * scale, 1.0 * scale],
                    computer_names=("alpha", "beta", "gamma"),
                    user_names=("u1", "u2"),
                ),
            )
            for scale in (1.0, 2.0, 3.0)
        ]
        _assert_sweeps_identical(
            run_schemes_sweep(points), run_schemes_sweep(points, n_workers=2)
        )

    def test_explicit_schemes(self, table1_small):
        from repro.schemes import ProportionalScheme

        results = run_schemes_sweep(
            [(0.5, table1_small)], [ProportionalScheme()]
        )
        assert set(results[0][1]) == {"PS"}

    def test_unknown_sweep_kind_rejected(self):
        from repro.workloads.sweeps import sweep_points

        with pytest.raises(KeyError, match="unknown sweep"):
            sweep_points("nope")

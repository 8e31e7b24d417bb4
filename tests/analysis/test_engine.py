"""Engine behavior: discovery, suppression plumbing, rule selection."""

from __future__ import annotations

import pytest

from repro.analysis.engine import discover_files, lint_paths, lint_sources
from repro.analysis.finding import PARSE_ERROR
from repro.analysis.registry import all_rules, get_rule, selected_rules
from repro.analysis.source import SourceFile, parse_suppressions


def test_registry_exposes_the_ten_rules():
    codes = [rule.code for rule in all_rules()]
    assert codes == [
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
        "R007",
        "R008",
        "R009",
        "R010",
    ]
    for rule in all_rules():
        assert rule.name
        assert rule.rationale


def test_get_rule_rejects_unknown_codes():
    with pytest.raises(KeyError):
        get_rule("R999")


def test_selected_rules_select_and_ignore():
    codes = [rule.code for rule in selected_rules(["R003", "R001"])]
    assert codes == ["R001", "R003"]
    codes = [rule.code for rule in selected_rules(None, ["R002", "R004"])]
    assert codes == [
        "R001",
        "R003",
        "R005",
        "R006",
        "R007",
        "R008",
        "R009",
        "R010",
    ]
    with pytest.raises(KeyError):
        selected_rules(["R001", "R999"])


def test_discover_files_skips_caches_and_non_python(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.py").write_text("y = 2\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-310.py").write_text("z = 3\n")

    found = discover_files([tmp_path])
    assert found == [tmp_path / "a.py", sub / "b.py"]


def test_discover_files_deduplicates_and_rejects_missing(tmp_path):
    target = tmp_path / "a.py"
    target.write_text("x = 1\n")
    assert discover_files([target, tmp_path]) == [target]
    with pytest.raises(FileNotFoundError):
        discover_files([tmp_path / "missing"])


def test_lint_paths_reports_unparseable_files(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def incomplete(:\n")
    findings = lint_paths([tmp_path])
    assert [f.rule for f in findings] == [PARSE_ERROR]
    assert "cannot parse" in findings[0].message


def test_parse_suppressions_grammar():
    table = parse_suppressions(
        [
            "x = 1  # reprolint: allow=R002 exact-sentinel",
            "# reprolint: allow=R001,R003 free-text reason",
            "y = 2",
            "z = 3  # plain comment",
        ]
    )
    assert table[1] == frozenset({"R002"})
    # A standalone comment covers itself and the following line.
    assert table[2] == frozenset({"R001", "R003"})
    assert table[3] == frozenset({"R001", "R003"})
    assert 4 not in table


def test_findings_are_sorted_by_location():
    source = SourceFile.from_text(
        "import random\nimport time\nflag = 1.0 == 2.0\n",
        "pkg/feature.py",
    )
    findings = lint_sources([source])
    assert [f.rule for f in findings] == ["R001", "R002"]
    assert [f.line for f in findings] == [1, 3]
    assert findings[0].render().startswith("pkg/feature.py:1:")

"""Dependencies point downward: the core never loads the layers above it.

The import checks run in a fresh interpreter, because the test session
itself has long since imported everything; the source scan reads every
core module's import statements, including function-local ones.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

CORE_DIR = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"

#: Packages built on top of ``repro.core``; core may import none of them.
UPPER_LAYERS = (
    "repro.engine",
    "repro.experiments",
    "repro.distributed",
    "repro.schemes",
    "repro.simengine",
    "repro.workloads",
)

CORE_IMPORT_SCRIPT = """
import sys

import repro.core

print(sorted(m for m in ("repro.experiments", "scipy.stats") if m in sys.modules))
"""


def _python(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )


def test_core_import_loads_neither_experiments_nor_scipy_stats():
    result = _python("-c", CORE_IMPORT_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_runner_module_runs_without_runpy_warning():
    # runpy warns when the package import already loaded the module it
    # is about to execute; with warnings as errors that is a failure.
    result = _python(
        "-W", "error::RuntimeWarning", "-m", "repro.experiments.runner", "--help"
    )
    assert result.returncode == 0, result.stderr


def _imported_modules(path: Path) -> list[str]:
    """Absolute names of every module ``path`` imports."""
    package = ["repro", "core"]
    names: list[str] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            tail = [node.module] if node.module else []
            names.append(".".join(base + tail))
    return names


def test_core_sources_import_no_upper_layer():
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(CORE_DIR.glob("*.py"))
        for name in _imported_modules(path)
        if any(
            name == layer or name.startswith(layer + ".")
            for layer in UPPER_LAYERS
        )
    ]
    assert offenders == []

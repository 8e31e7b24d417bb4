"""Dependencies point downward: the core never loads the experiment harness.

Both checks run in a fresh interpreter, because the test session itself
has long since imported everything.
"""

from __future__ import annotations

import subprocess
import sys

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

"""Experiment harness — one module per paper table/figure (see DESIGN.md).

=========  =================================================
Module                         Paper artifact
=========  =================================================
table1                Table 1 (system configuration)
fig2_convergence      Figure 2 (norm vs iterations)
fig3_users            Figure 3 (iterations vs #users)
fig4_utilization      Figure 4 (response time / fairness vs load)
fig5_per_user         Figure 5 (per-user response times)
fig6_heterogeneity    Figure 6 (speed skewness sweep)
sim_validation        Sec. 4.1 methodology (simulation vs analytic)
extensions            EXT1 (PoA, Stackelberg), ABL1/ABL2 ablations
ext_dynamics          EXT2 (dynamic dispatch), EXT3 (NBS), ABL3/ABL4
ext_models            EXT4 (comm delays), EXT5 (misspecification)
ext_deployment        EXT6 (measured closed loop), ABL5 (network faults)
ext_crash_recovery    EXT9 (protocol crash-fault tolerance)
ext_online            EXT10 (online engine: a day in production)
ext_sampled           EXT11 (power-of-k sampled best replies)
=========  =================================================
"""

import importlib

from repro.experiments.ascii_plot import ascii_chart, sparkline
from repro.experiments.common import (
    SCHEME_ORDER,
    ExperimentTable,
    run_schemes,
    run_schemes_sweep,
)
from repro.experiments.parallel import parallel_map, run_experiments_parallel

#: Exports of the runner and of the report (which imports the runner),
#: loaded on first access.  Importing the runner eagerly here would put
#: it in ``sys.modules`` before ``python -m repro.experiments.runner``
#: executes it, which runpy reports as a RuntimeWarning.
_LAZY_EXPORTS = {
    "EXPERIMENTS": "runner",
    "main": "runner",
    "render_chart": "runner",
    "run_experiment": "runner",
    "generate_report": "report",
    "table_to_markdown": "report",
}


def __getattr__(name: str) -> object:
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

__all__ = [
    "ascii_chart",
    "sparkline",
    "parallel_map",
    "run_experiments_parallel",
    "generate_report",
    "table_to_markdown",
    "render_chart",
    "SCHEME_ORDER",
    "ExperimentTable",
    "run_schemes",
    "run_schemes_sweep",
    "EXPERIMENTS",
    "main",
    "run_experiment",
]

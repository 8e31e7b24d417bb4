"""Spans recorded around calls into the program's layers.

Only the traced run uses this module.  :meth:`Recorder.installed`
replaces each public function listed by :func:`_targets` with a wrapper that
records a span (name, start, end, parent, run id) and restores the
originals on exit, so the timed runs execute unwrapped code.  Spans are
kept in memory and written out once, when the run ends.

Wrapping happens at the attribute the callers look up at call time: a
class attribute for methods, and the module global for functions that
another layer imported by name (``best_response_regrets`` as called
from ``repro.engine`` and from the NASH scheme).
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


# --- what each layer's return value adds to its counters --------------
def _on_aggregate(stats: Counter, aggregation) -> None:
    stats["users"] += aggregation.n_users
    stats["classes"] += aggregation.n_classes


def _on_class_solve(stats: Counter, result) -> None:
    stats["sweeps"] += result.iterations
    stats["budget_exhausted"] += not result.converged


def _on_class_certify(stats: Counter, certificate) -> None:
    stats["epsilon_max"] = max(stats["epsilon_max"], certificate.epsilon)


def _on_epoch(stats: Counter, report) -> None:
    solved = report.status in ("ok", "degraded")
    stats["solved"] += solved
    stats["warm"] += solved and report.warm_started
    stats["degraded"] += report.status == "degraded"
    stats["exhausted"] += report.status == "exhausted"
    stats["uncertified"] += solved and not report.certified


def _on_sweeps(stats: Counter, result) -> None:
    stats["sweeps"] += result.iterations


def _on_simulation(stats: Counter, result) -> None:
    stats["jobs"] += result.total_jobs


def _on_replications(stats: Counter, results) -> None:
    stats["jobs"] += sum(r.total_jobs for r in results)
    stats["replications"] += len(results)


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, return hook) for every wrapped call."""
    from perfbench import checks, workloads
    from repro.core import classes, nash
    from repro.engine import reequilibrate, service
    from repro.schemes import nash_scheme, proportional
    from repro.simengine import fastpath, simulator

    return [
        (classes, "aggregate_users", "aggregate", _on_aggregate),
        (classes.ClassNashSolver, "solve", "class_solve", _on_class_solve),
        (classes, "class_best_response_regrets", "class_certify", _on_class_certify),
        (service.OnlineEquilibriumEngine, "process_epoch", "engine", _on_epoch),
        (nash.NashSolver, "solve", "nash", _on_sweeps),
        (reequilibrate, "best_response_regrets", "certify", None),
        (nash_scheme, "best_response_regrets", "certify", None),
        (nash_scheme.NashScheme, "allocate", "schemes", None),
        (proportional.ProportionalScheme, "allocate", "schemes", None),
        (simulator, "simulate_profile", "simulator.static", _on_simulation),
        (simulator, "simulate_policy", "simulator.policy", _on_simulation),
        (fastpath, "simulate_profile_fast_batch", "fastpath", _on_replications),
        # The benchmark's own work, so that it is not left uncovered.
        (workloads, "class_instance", "bench.generate", None),
        (workloads, "churn_day", "bench.generate", None),
        (checks, "check_class_solve", "bench.check", None),
        (checks, "check_epoch", "bench.check", None),
        (checks, "check_simulation", "bench.check", None),
        (checks, "check_response_time", "bench.check", None),
    ]


class Recorder:
    """In-memory span store plus per-layer counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stats: defaultdict[str, Counter] = defaultdict(Counter)
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn: Callable, name: str, hook: Callable | None) -> Callable:
        stats = self.stats[name]

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run))
            if hook is not None:
                hook(stats, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[Recorder]:
        """Wrap every target for the duration of the block."""
        undo: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name, hook in _targets():
                # None: the attribute is inherited, so restoring deletes it.
                undo.append((owner, attr, vars(owner).get(attr)))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def busy_and_self(self) -> dict[str, tuple[int, float, float]]:
        """Layer -> (calls, busy seconds, self seconds).

        Self time is busy time minus the time covered by child spans
        (children of one span never overlap: the loop is single-threaded).
        """
        child_s: Counter = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.seconds
        table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            row = table[span.name]
            row[0] += 1
            row[1] += span.seconds
            row[2] += span.seconds - child_s[span.id]
        return {name: (int(c), busy, own) for name, (c, busy, own) in table.items()}

    def covered_s(self) -> float:
        """Seconds covered by top-level spans (they never overlap)."""
        return sum(span.seconds for span in self.spans if span.parent is None)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")

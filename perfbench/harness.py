"""Set-up, the closed loop, and the metrics computed from them."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy
import scipy

from perfbench import calibration, stats
from perfbench.stats import Metric
from perfbench.workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to ``import repro``."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout.split()[-1])


@dataclass
class SetUp:
    state: object
    #: Per repetition: fresh import + input generation, bootstrap and
    #: one untimed warm-up op.
    totals_s: list[float]
    imports_s: list[float]
    #: Per repetition: the machine's slowdown right after it.
    slowdowns: list[float]

    @property
    def calibrated_s(self) -> float:
        """Median set-up time at the reference loop's nominal speed."""
        return stats.median([t / s for t, s in zip(self.totals_s, self.slowdowns)])


def set_up(workload, seed: int) -> SetUp:
    totals, imports, slowdowns = [], [], []
    state = None
    for _ in range(SETUP_REPS):
        imported = fresh_import_s()
        state = None  # release the previous repetition's state first
        started = perf_counter()
        state = workload.build(seed)
        workload.warm_up(state)
        totals.append(imported + perf_counter() - started)
        imports.append(imported)
        slowdowns.append(calibration.slowdown(calibration.after_batch(totals[-1])))
    return SetUp(state, totals, imports, slowdowns)


@dataclass
class Loop:
    outcomes: list[Outcome]
    batches: int
    wall_s: float
    #: Reference unit times measured between batches (``calibration``).
    unit_times: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.failures)


def _batch(workload, state, index: int) -> list[Outcome]:
    started = perf_counter()
    try:
        return workload.batch(state, index)
    except Exception as error:  # the loop must go on: count it, report it
        traceback.print_exc(file=sys.stderr)
        return [Outcome(perf_counter() - started, [f"raised {error!r}"])]


def run_loop(
    workload,
    state,
    *,
    seconds: float | None = None,
    batches: int | None = None,
) -> Loop:
    """Run batches back to back until ``seconds`` have passed, or for
    exactly ``batches`` batches, with the reference loop in the gap
    after each batch."""
    if (seconds is None) == (batches is None):
        raise ValueError("give exactly one of seconds and batches")
    outcomes: list[Outcome] = []
    unit_times: list[float] = []
    index = 0
    calibration.unit()  # first touch of the reference arrays, untimed
    started = perf_counter()
    while (
        index < batches if batches is not None else perf_counter() - started < seconds
    ):
        batch = _batch(workload, state, index)
        outcomes += batch
        unit_times += calibration.after_batch(sum(o.latency_s for o in batch))
        index += 1
    wall = perf_counter() - started
    workload.finish(state, outcomes)
    return Loop(outcomes, index, wall, unit_times)


def run_paired(workload, plain, traced, instrument, *, seconds: float) -> tuple[Loop, Loop]:
    """Run each batch twice on identical inputs, first on ``plain`` and
    then on ``traced`` inside ``instrument(index)``, until the traced
    copy has run for ``seconds``.  Alternating batch by batch exposes
    both copies to the same slow and fast spells of a shared machine, so
    the difference of their wall times is the tracing overhead rather
    than noise."""
    runs: tuple[list[Outcome], list[Outcome]] = ([], [])
    walls = [0.0, 0.0]
    index = 0
    while walls[1] < seconds:
        t0 = perf_counter()
        runs[0].extend(_batch(workload, plain, index))
        t1 = perf_counter()
        with instrument(index):
            runs[1].extend(_batch(workload, traced, index))
        t2 = perf_counter()
        walls[0] += t1 - t0
        walls[1] += t2 - t1
        index += 1
    workload.finish(plain, runs[0])
    workload.finish(traced, runs[1])
    return Loop(runs[0], index, walls[0]), Loop(runs[1], index, walls[1])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ops_per_s(loop: Loop) -> float:
    """Ops divided by their summed latency, so the tail counts too."""
    return loop.attempted / sum(o.latency_s for o in loop.outcomes)


def end_to_end(loop: Loop, setup: SetUp) -> list[Metric]:
    """The metrics every workload reports (``BENCHMARK.json``)."""
    n = loop.attempted
    return [
        Metric("setup_s", setup.calibrated_s, "s", len(setup.totals_s)),
        Metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
        Metric(
            "ops_per_cal_s",
            ops_per_s(loop) * calibration.slowdown(loop.unit_times),
            "1/cal_s",
            n,
        ),
    ]


def wall_clock(loop: Loop, setup: SetUp) -> list[Metric]:
    """The raw figures behind the calibrated ones, printed beside them."""
    n = loop.attempted
    return [
        Metric("setup_wall_s", stats.median(setup.totals_s), "s", len(setup.totals_s)),
        Metric("ops_per_s", ops_per_s(loop), "1/s", n),
        Metric("slowdown", calibration.slowdown(loop.unit_times), "ratio", len(loop.unit_times)),
    ]


def per_layer(recorder, registry, traced: Loop, plain: Loop, setup: SetUp) -> list[Metric]:
    """Per-layer metrics of the traced copy (``BENCHMARK.json``)."""
    table = recorder.busy_and_self()
    st = recorder.stats
    n = traced.attempted
    out = [Metric("import.busy_s", stats.median(setup.imports_s), "s", len(setup.imports_s))]

    def layer(name: str, *extra: tuple[str, float, str]) -> None:
        calls, busy, _ = table.get(name, (0, 0.0, 0.0))
        out.append(Metric(f"{name}.calls", calls, "count", n))
        out.append(Metric(f"{name}.busy_s", busy, "s", n))
        out.extend(Metric(f"{name}.{key}", value, unit, n) for key, value, unit in extra)

    agg = st["aggregate"]
    layer("aggregate", ("users_per_class", agg["users"] / agg["classes"] if agg["classes"] else 0.0, "users/class"))
    solve = st["class_solve"]
    counters = registry.snapshot()
    sweep_hist = counters["histograms"].get("solver.class_sweep_seconds", {})
    sweeps = solve["sweeps"]
    layer(
        "class_solve",
        ("sweeps", sweeps, "count"),
        ("sweep_s", sweep_hist.get("total", 0.0) / sweeps if sweeps else 0.0, "s"),
        ("replies", counters["counters"].get("solver.class_replies", 0), "count"),
        ("budget_exhausted", solve["budget_exhausted"], "count"),
    )
    layer("class_certify", ("epsilon_max", st["class_certify"]["epsilon_max"], "s"))
    epochs = st["engine"]
    layer(
        "engine",
        ("self_s", table.get("engine", (0, 0.0, 0.0))[2], "s"),
        ("warm_ratio", epochs["warm"] / epochs["solved"] if epochs["solved"] else 0.0, "ratio"),
        ("degraded", epochs["degraded"], "count"),
        ("exhausted", epochs["exhausted"], "count"),
        ("uncertified", epochs["uncertified"], "count"),
    )
    layer("nash", ("sweeps", st["nash"]["sweeps"], "count"))
    layer("certify")
    layer("schemes")
    layer("simulator.static", ("jobs", st["simulator.static"]["jobs"], "count"))
    layer("simulator.policy", ("jobs", st["simulator.policy"]["jobs"], "count"))
    fast = st["fastpath"]
    layer("fastpath", ("jobs", fast["jobs"], "count"), ("replications", fast["replications"], "count"))
    out += [
        Metric("trace.wall_s", traced.wall_s, "s", n),
        Metric("trace.overhead_s", traced.wall_s - plain.wall_s, "s", n),
        Metric("trace.uncovered_s", traced.wall_s - recorder.covered_s(), "s", n),
    ]
    return out


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_dir(root: Path) -> Path | None:
    """The git directory of ``root``, following a ``gitdir:`` file (a
    linked work tree or a submodule)."""
    dot_git = root / ".git"
    if dot_git.is_dir():
        return dot_git
    if dot_git.is_file():
        text = dot_git.read_text().strip()
        if text.startswith("gitdir: "):
            return (root / text[len("gitdir: "):]).resolve()
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git work tree, read without git: a
    loose ref first, then ``packed-refs``, both in the common directory
    that linked work trees share."""
    try:
        git = _git_dir(root)
        if git is None:
            return None
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        common = git
        if (git / "commondir").is_file():
            common = (git / (git / "commondir").read_text().strip()).resolve()
        for base in dict.fromkeys((git, common)):
            if (base / ref).is_file():
                return (base / ref).read_text().strip()
        packed = common / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                sha, _, name = line.partition(" ")
                if name == ref and not line.startswith(("#", "^")):
                    return sha
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Digest of the program's source tree: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(ROOT),
        "source_digest": _source_digest(),
        "seed": seed,
    }

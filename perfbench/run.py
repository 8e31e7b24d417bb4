"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload class-million --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs every batch of operations twice on identical inputs,
once plain and once with spans around every layer call, until the
traced copy has run for ``--seconds``; it reports the per-layer metrics
and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A JSON record with the environment, and the spans of a traced run, are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: One BLAS thread: two cores are shared with nothing else in the run,
#: and a second BLAS thread only adds scheduling noise at these sizes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _print_metrics(title: str, metrics) -> None:
    print(title)
    for m in metrics:
        print(f"  {m.name:<30} {m.value:>16.6g} {m.unit:<12} n={m.n}")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # The script's own directory must not shadow top-level modules.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    _import_program()

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")

    env = harness.environment(args.seed)
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env))

    setup = harness.set_up(workload, args.seed)
    record: dict[str, object] = {"workload": workload.name, "environment": env}
    if args.trace == 0:
        loop = harness.run_loop(workload, setup.state, seconds=args.seconds)
        metrics = harness.end_to_end(loop, setup)
        own = harness.wall_clock(loop, setup) + workload.named_metrics(loop.outcomes)
        _print_metrics("end-to-end", metrics)
        _print_metrics(f"{workload.name} ({workload.op_label} ops)", own)
        record["named"] = [vars(m) for m in own]
        loops = [loop]
    else:
        from perfbench.tracing import Recorder
        from repro.telemetry.trace import Tracer, use_tracer

        traced_state = workload.build(args.seed)
        workload.warm_up(traced_state)
        recorder, tracer = Recorder(), Tracer()

        @contextmanager
        def instrument(index: int):
            recorder.run = f"b{index}"
            with recorder.installed(), use_tracer(tracer):
                yield

        plain, traced = harness.run_paired(
            workload, setup.state, traced_state, instrument, seconds=args.seconds
        )
        recorder.write(OUT / f"{workload.name}-seed{args.seed}.spans.jsonl")
        print("layer                          calls           busy_s           self_s")
        for name, (calls, busy, own_s) in sorted(recorder.busy_and_self().items()):
            print(f"  {name:<26} {calls:>8d} {busy:>16.6f} {own_s:>16.6f}")
        metrics = harness.per_layer(recorder, tracer.registry, traced, plain, setup)
        _print_metrics("per-layer", metrics)
        loops = [plain, traced]

    attempted = sum(x.attempted for x in loops)
    failed = sum(x.failed for x in loops)
    for x in loops:
        for outcome in x.outcomes:
            for reason in outcome.failures:
                print(f"FAILED: {reason}")
    print(f"ops_attempted {attempted}  ops_failed {failed}")
    record["metrics"] = [vars(m) for m in metrics]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

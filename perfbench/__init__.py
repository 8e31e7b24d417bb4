"""Benchmark for the ``repro`` package: four closed-loop workloads with
end-to-end metrics and a traced run for per-layer attribution.  See
``perfbench/README.md``; the entry point is ``perfbench/run.py``."""

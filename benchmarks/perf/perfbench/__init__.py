"""The repository benchmark harness (see ``benchmarks/perf/README.md``).

``workloads`` generates and runs the four seeded workloads, ``rep`` runs
one repetition inside a fresh child process, ``tracing`` attributes a
traced repetition's time to the library's layers from outside, and
``stats`` turns repetitions into the metrics ``BENCHMARK.json`` names.
``benchmarks/perf/run.py`` is the command line.
"""

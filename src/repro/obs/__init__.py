"""Observability for the simulation harness: tracing and profiling.

The paper's evaluation is a set of theorems checked over simulated
executions; this subpackage is the instrument panel for those
simulations.  It is deliberately zero-dependency and pay-for-what-you-use:
the step loop runs no tracing code, and nothing here times a run unless
a step profiler is attached.

``repro.obs.trace``
    Structured event tracing: a :class:`TraceRecorder` that reads a
    finished run's :class:`~repro.ioa.executions.Execution` into typed
    events (no clock readings) with span markers, and renders the
    canonical JSONL trace ``result.trace`` stores.
``repro.obs.schema``
    The stable schema of the persisted ``BENCH_*.json`` benchmark
    artifacts, with a validator (also a CLI: ``python -m
    repro.obs.schema``).
``repro.obs.prof``
    Step-level profiling: the :class:`StepProfiler`, whose timing
    wrappers around a run's per-step callables book the step phases,
    plus the process-global cache hit/miss/evict counters the hot-path
    memos increment.
``repro.obs.compare``
    The BENCH drift comparator: exact series comparison with
    first-divergence reporting, tolerance-banded wall-time trends (also
    a CLI: ``python -m repro.obs.compare``).
"""

# Lazy re-exports (PEP 562): importing a name pulls in only its module.
# This keeps `import repro.obs` nearly free and lets the submodule CLIs
# (`python -m repro.obs.schema` / `.compare`) run without the runpy
# double-import RuntimeWarning an eager `from .schema import ...` causes.
_EXPORTS = {
    "BENCH_SCHEMA": "repro.obs.schema",
    "make_bench_artifact": "repro.obs.schema",
    "validate_bench_artifact": "repro.obs.schema",
    "TraceEvent": "repro.obs.trace",
    "TraceRecorder": "repro.obs.trace",
    "PROFILE_SCHEMA": "repro.obs.prof",
    "CacheCounter": "repro.obs.prof",
    "StepProfiler": "repro.obs.prof",
    "cache_counter": "repro.obs.prof",
    "cache_stats_delta": "repro.obs.prof",
    "cache_stats_snapshot": "repro.obs.prof",
    "reset_cache_stats": "repro.obs.prof",
    "validate_profile": "repro.obs.prof",
    "SeriesDrift": "repro.obs.compare",
    "compare_docs": "repro.obs.compare",
    "compare_dirs": "repro.obs.compare",
    "compare_files": "repro.obs.compare",
    "compare_series": "repro.obs.compare",
    "first_divergence": "repro.obs.compare",
}


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "BENCH_SCHEMA",
    "make_bench_artifact",
    "validate_bench_artifact",
    "TraceEvent",
    "TraceRecorder",
    "PROFILE_SCHEMA",
    "CacheCounter",
    "StepProfiler",
    "cache_counter",
    "cache_stats_delta",
    "cache_stats_snapshot",
    "reset_cache_stats",
    "validate_profile",
    "SeriesDrift",
    "compare_docs",
    "compare_dirs",
    "compare_files",
    "compare_series",
    "first_divergence",
]

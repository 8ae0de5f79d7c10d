"""One-command benchmark sweep: run every ``bench_*`` kernel and
persist its ``BENCH_<ID>.json`` artifact (docs/EXPERIMENTS.md).

Usage::

    python benchmarks/run_sweep.py [--quick] [--only e10,a05] [--jobs N]
                                   [--profile] [--compiled] [--cache DIR]

``--quick`` asks each kernel for its scaled-down parameterization (the
same flag the standalone ``python benchmarks/bench_*.py --quick`` CLIs
accept); kernels without a ``quick`` parameter run at full size.
``--only`` restricts the sweep to a comma-separated list of bench ids.
``--jobs N`` fans whole benchmarks across up to ``N`` worker processes
via :func:`repro.runner.parallel_map` (``--jobs 0`` = all usable
cores): kernels run in this process until the measured kernel time
says a fork pool pays for the rest, so the first kernel always runs
here.  Kernels are deterministic, so the artifacts carry the same
series at any job count; artifact files are always written by this
parent process, in bench order.

``--profile`` books each kernel's step phases and cache hit rates into
``PROFILE_<ID>.json`` (each kernel is profiled in the process that runs
it; the parent writes the files).  ``--compiled`` routes every scheduler/tree
run through the compiled core (:mod:`repro.compiled`) — byte-identical
series, different wall times; the perf-guard CI job sweeps both paths
and diffs them.  No flag changes any series.

``--cache DIR`` makes the sweep incremental through a content-addressed
:class:`repro.cache.ResultStore` at DIR: each kernel's measured rows
are stored under the digest of ``(bench_id, quick, compiled)`` (plus
the store's version/engine stamps), and a later sweep into the same
store serves unchanged kernels from disk without executing them — a
warm full sweep regenerates all 23 series byte-identically with zero
kernel executions.  ``--profile`` forces execution (there is no kernel
to profile on a hit), so the two flags together bypass the cache reads.
The summary line ``sweep-cache: hits=H misses=M kernels_executed=M``
is machine-checkable (CI job ``cache-smoke``).

Exit status is the number of failed benchmarks (0 on full success).
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from pathlib import Path

_BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(_BENCH_DIR))

from _helpers import (  # noqa: E402
    BenchSpec,
    emit_bench_artifact,
    pop_jobs,
    pop_option,
    print_profile,
    print_series,
    profiled_kernel_run,
    write_profile,
)


def discover():
    """Import every bench_* module and collect its BENCH spec."""
    specs = []
    for path in sorted(_BENCH_DIR.glob("bench_*.py")):
        module = importlib.import_module(path.stem)
        spec = getattr(module, "BENCH", None)
        if isinstance(spec, BenchSpec):
            specs.append((path.stem, spec))
    return specs


def _run_one(item):
    """Run one benchmark kernel, serially, in this process or a worker.

    ``parallel_map`` may call it in the parent (the first kernels of a
    sweep, or all of them when they are cheap) or in a forked worker, so
    it leaves the process as it found it: the compiled default is
    restored in a ``finally``.  Takes ``(module_stem, quick, profile,
    compiled)`` — plain picklable data — and imports the bench module in
    the process that runs it.  Returns ``(stem, rows, wall_s,
    profile_summary, error)``; the parent owns all printing and
    artifact/profile writes so output and files stay ordered.
    Profiling happens in the running process (the profiler's cache
    window is per-process), and the summary dict is plain JSON-ready
    data, so it pickles back cleanly.
    """
    stem, quick, profile, compiled = item
    module = importlib.import_module(stem)
    spec = module.BENCH
    from repro.compiled.config import set_compiled_default

    previous = set_compiled_default(True) if compiled else None
    summary = None
    start = time.perf_counter()
    try:
        if profile:
            rows, summary = profiled_kernel_run(spec, quick=quick)
        else:
            rows = spec.run_kernel(quick=quick, jobs=1)
    except Exception:
        return (
            stem,
            None,
            time.perf_counter() - start,
            None,
            traceback.format_exc(),
        )
    finally:
        if compiled:
            set_compiled_default(previous)
    return stem, rows, time.perf_counter() - start, summary, None


def _bench_cache_identity(bench_id, quick, compiled):
    """The content-addressed identity of one kernel's measured rows.

    ``compiled`` is part of the identity even though the engines are
    byte-identical twins: serving interpreted rows to a ``--compiled``
    sweep (or vice versa) would mask exactly the drift the perf-guard
    CI job exists to catch.
    """
    return {
        "kind": "bench-rows",
        "bench_id": bench_id,
        "quick": bool(quick),
        "compiled": bool(compiled),
    }


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        jobs = pop_jobs(args) or 1
        cache_dir = pop_option(args, "--cache")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    quick = "--quick" in args
    profile = "--profile" in args
    compiled = "--compiled" in args
    only = None
    for arg in args:
        if arg.startswith("--only"):
            value = arg.split("=", 1)[1] if "=" in arg else ""
            if not value:
                idx = args.index(arg)
                value = args[idx + 1] if idx + 1 < len(args) else ""
            only = {b.strip().lower() for b in value.split(",") if b.strip()}

    specs = discover()
    if only is not None:
        specs = [(stem, s) for (stem, s) in specs if s.bench_id.lower() in only]
    if not specs:
        print("no benchmarks selected", file=sys.stderr)
        return 1

    from repro.runner import parallel_map

    store = None
    cached_rows = {}
    if cache_dir is not None:
        from repro.cache import ResultStore
        from repro.runner.spec import digest

        store = ResultStore(cache_dir)
        if profile:
            # There is no kernel to profile on a hit; execute everything
            # (results are still published back for later warm sweeps).
            print(
                "sweep-cache: --profile forces execution; cache reads "
                "skipped this sweep",
                file=sys.stderr,
            )
        else:
            for stem, spec in specs:
                key = digest(
                    _bench_cache_identity(spec.bench_id, quick, compiled)
                )
                payload = store.get_object(key)
                if payload is not None:
                    cached_rows[stem] = payload

    to_run = [
        (stem, quick, profile, compiled)
        for (stem, _s) in specs
        if stem not in cached_rows
    ]
    sweep_start = time.perf_counter()
    outcomes = parallel_map(_run_one, to_run, jobs=jobs)
    sweep_wall = time.perf_counter() - sweep_start

    by_stem = dict(zip([stem for (stem, *_rest) in to_run], outcomes))
    for stem, payload in cached_rows.items():
        by_stem[stem] = (
            stem,
            payload["rows"],
            payload["kernel_wall_s"],
            None,
            None,
        )
    failures = 0
    for stem, spec in specs:
        _stem, rows, wall, summary, error = by_stem[stem]
        hit = stem in cached_rows
        if error is not None:
            failures += 1
            print(f"[{spec.bench_id}] FAILED", file=sys.stderr)
            print(error, file=sys.stderr)
            continue
        print_series(spec.title, rows, header=spec.header)
        metrics = {"jobs": jobs, "compiled": compiled}
        if store is not None:
            metrics["cached"] = hit
        path = emit_bench_artifact(
            spec,
            rows,
            timings={"kernel_wall_s": wall},
            quick=quick,
            metrics=metrics,
        )
        if hit:
            # The carried wall is the *cold* kernel's — the measured
            # cost of producing these rows, not of this sweep.
            print(
                f"[{spec.bench_id}] cache hit (cold kernel {wall:.3f}s) "
                f"-> {path}",
                file=sys.stderr,
            )
        else:
            print(
                f"[{spec.bench_id}] kernel {wall:.3f}s -> {path}",
                file=sys.stderr,
            )
            if store is not None:
                store.put_object(
                    _bench_cache_identity(spec.bench_id, quick, compiled),
                    {"rows": rows, "kernel_wall_s": wall},
                )
        if summary is not None:
            profile_path = write_profile(spec, summary)
            print_profile(spec.bench_id, summary)
            print(
                f"[{spec.bench_id}] profile -> {profile_path}",
                file=sys.stderr,
            )
    if store is not None:
        print(
            f"sweep-cache: hits={len(cached_rows)} misses={len(to_run)} "
            f"kernels_executed={len(to_run)} -> {cache_dir}",
            file=sys.stderr,
        )
    print(
        f"\nsweep: {len(specs) - failures}/{len(specs)} benchmarks ok "
        f"in {sweep_wall:.1f}s (jobs={jobs})",
        file=sys.stderr,
    )
    return failures


if __name__ == "__main__":
    raise SystemExit(main())

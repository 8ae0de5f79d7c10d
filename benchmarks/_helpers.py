"""Shared helpers for the experiment benchmarks (DESIGN.md, Section 4).

Each ``bench_eXX_*.py`` module reproduces one experiment from the
per-experiment index: it asserts the paper's qualitative claim, prints
the measured series, and **persists** the series as a ``BENCH_<ID>.json``
artifact in the repository root (schema: :mod:`repro.obs.schema`).

Every module declares a :class:`BenchSpec` and can be run three ways:

* ``pytest benchmarks/ --benchmark-only`` — the historical harness;
  pytest-benchmark times the kernel, the test asserts the claim and
  emits the artifact;
* ``python benchmarks/bench_eXX_*.py [--quick] [--jobs N]`` —
  standalone, via :func:`bench_main`: runs the kernel once, wall-times
  it, prints the series and emits the artifact (``--quick`` asks the
  kernel for its scaled-down parameterization — useful for CI smoke
  runs; ``--jobs N`` fans the kernel's independent units across up to
  ``N`` worker processes via :mod:`repro.runner`, with results
  identical to the serial run);
* ``python benchmarks/run_sweep.py [--quick] [--jobs N]`` — the whole
  suite, optionally with whole benchmarks fanned across processes.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

# Make the bench scripts runnable without PYTHONPATH=src.
_REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.ioa.scheduler import Scheduler
from repro.obs.schema import make_bench_artifact
from repro.system.fault_pattern import FaultPattern


@dataclass
class BenchSpec:
    """One benchmark's identity and kernel.

    ``kernel`` returns the series rows; if its signature has a ``quick``
    parameter, ``--quick`` runs pass ``quick=True`` and the kernel is
    expected to shrink its sweep accordingly.  If it has a ``jobs``
    parameter, the kernel fans its independent units across up to that
    many worker processes (``repro.runner.parallel_map`` /
    ``repro.runner.BatchRunner``) — by the engine's determinism
    contract, the rows are identical at any job count.
    """

    bench_id: str
    title: str
    kernel: Callable[..., Sequence[Sequence[Any]]]
    header: Optional[Sequence[str]] = None

    def run_kernel(self, quick: bool = False, jobs: int = 1):
        params = inspect.signature(self.kernel).parameters
        kwargs = {}
        if "quick" in params:
            kwargs["quick"] = quick
        if "jobs" in params:
            kwargs["jobs"] = jobs
        return self.kernel(**kwargs)

    @property
    def artifact_path(self) -> Path:
        return _REPO_ROOT / f"BENCH_{self.bench_id.upper()}.json"

    @property
    def profile_path(self) -> Path:
        return _REPO_ROOT / f"PROFILE_{self.bench_id.upper()}.json"


def run_detector_trace(detector, crashes, steps, locations):
    """Generate one fair detector trace under a crash plan."""
    execution = Scheduler().run(
        detector.automaton(),
        max_steps=steps,
        injections=FaultPattern(crashes, locations).injections(),
    )
    return list(execution.actions)


def print_series(title: str, rows, header=None) -> None:
    """Print an experiment's series the way the index promises."""
    print(f"\n[{title}]", file=sys.stderr)
    if header:
        print("  " + " | ".join(str(h) for h in header), file=sys.stderr)
    for row in rows:
        print("  " + " | ".join(str(c) for c in row), file=sys.stderr)


def emit_bench_artifact(
    spec: BenchSpec,
    rows,
    timings: Optional[Dict[str, float]] = None,
    quick: bool = False,
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the ``BENCH_<ID>.json`` artifact for one measured series."""
    doc = make_bench_artifact(
        bench_id=spec.bench_id,
        title=spec.title,
        rows=rows,
        header=spec.header,
        timings=timings,
        metrics=metrics,
        quick=quick,
    )
    path = spec.artifact_path
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2)
        fp.write("\n")
    return path


def profiled_kernel_run(spec: BenchSpec, quick: bool = False):
    """Run a kernel serially with a process-wide profiler installed.

    Returns ``(rows, profile_summary)``.  The kernel runs at ``jobs=1``,
    because the profiler books only the runs of its own process.  The
    kernels build their own schedulers internally, so the profiler rides the
    :func:`repro.ioa.scheduler.set_default_profiler` seam; its cache
    window starts at the profiler's construction, so the summary's
    ``cache`` block is the kernel's own memo activity (hit rates on the
    composition/tree memos), not the process's lifetime tally.
    Profiling books costs without changing schedules — the returned rows
    are byte-identical to an unprofiled run.
    """
    from repro.ioa.scheduler import set_default_profiler
    from repro.obs.prof import StepProfiler

    profiler = StepProfiler()
    previous = set_default_profiler(profiler)
    try:
        rows = spec.run_kernel(quick=quick)
    finally:
        set_default_profiler(previous)
    return rows, profiler.summary()


def write_profile(spec: BenchSpec, summary: Dict[str, Any]) -> Path:
    """Persist one kernel's ``repro.profile/1`` summary document."""
    path = spec.profile_path
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(summary, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return path


def print_profile(bench_id: str, summary: Dict[str, Any]) -> None:
    """One console line per phase plus the cache hit rates."""
    for name, phase in summary.get("phases", {}).items():
        print(
            f"[{bench_id}]   phase {name:<9} {phase['calls']:>9} calls  "
            f"{phase['wall_s']:.4f}s",
            file=sys.stderr,
        )
    for name, stats in summary.get("cache", {}).items():
        print(
            f"[{bench_id}]   cache {name:<22} hit rate "
            f"{stats['hit_rate']:.1%} ({stats['hits']}/{stats['hits'] + stats['misses']})",
            file=sys.stderr,
        )


def pop_option(args, name: str) -> Optional[str]:
    """Extract ``--name VALUE`` / ``--name=VALUE`` (mutates ``args``)."""
    for k, arg in enumerate(list(args)):
        if arg == name:
            if k + 1 >= len(args):
                raise ValueError(f"{name} needs a value")
            value = args[k + 1]
            del args[k : k + 2]
            return value
        if arg.startswith(name + "="):
            del args[k]
            return arg.split("=", 1)[1]
    return None


def pop_jobs(args) -> Optional[int]:
    """Extract ``--jobs N`` / ``--jobs=N`` from ``args`` (mutates it).

    Returns the parsed value, ``None`` if absent.  ``--jobs 0`` means
    "all usable cores" (``repro.runner.default_jobs``).  Raises
    ``ValueError`` on a malformed value.
    """
    jobs = None
    for k, arg in enumerate(list(args)):
        if arg == "--jobs":
            if k + 1 >= len(args):
                raise ValueError("--jobs needs a value")
            jobs = int(args[k + 1])
            del args[k : k + 2]
            break
        if arg.startswith("--jobs="):
            jobs = int(arg.split("=", 1)[1])
            del args[k]
            break
    if jobs is not None and jobs <= 0:
        from repro.runner import default_jobs

        jobs = default_jobs()
    return jobs


def bench_main(spec: BenchSpec, argv: Optional[Sequence[str]] = None) -> int:
    """Standalone CLI for one benchmark: run, print, persist.

    ``--profile`` additionally books the kernel's step phases and cache
    hit rates (:mod:`repro.obs.prof`) into ``PROFILE_<ID>.json``; it
    runs the kernel serially, so ``--profile`` with ``--jobs N > 1`` is
    a usage error (the profiler would see only the runs that stay in
    this process);
    ``--compiled`` routes every run the kernel makes through the
    compiled core (:mod:`repro.compiled`, via
    ``set_compiled_default(True)``, which forked ``--jobs N`` workers
    inherit) — by the byte-identity contract the measured series are
    unchanged, only the wall time moves.  None of the flags changes the
    measured series.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        jobs = pop_jobs(args) or 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    quick = "--quick" in args
    profile = "--profile" in args
    compiled = "--compiled" in args
    unknown = [
        a for a in args if a not in ("--quick", "--profile", "--compiled")
    ]
    if unknown:
        print(
            f"usage: python benchmarks/bench_{spec.bench_id}_*.py "
            "[--quick] [--jobs N] [--profile] [--compiled]",
            file=sys.stderr,
        )
        return 2
    if profile and jobs > 1:
        print(
            f"error: --profile runs the kernel serially; drop --jobs {jobs}",
            file=sys.stderr,
        )
        return 2
    from repro.compiled.config import set_compiled_default

    summary = None
    previous_default = set_compiled_default(True) if compiled else None
    start = time.perf_counter()
    try:
        if profile:
            rows, summary = profiled_kernel_run(spec, quick=quick)
        else:
            rows = spec.run_kernel(quick=quick, jobs=jobs)
    finally:
        if compiled:
            set_compiled_default(previous_default)
    wall = time.perf_counter() - start
    print_series(spec.title, rows, header=spec.header)
    path = emit_bench_artifact(
        spec,
        rows,
        timings={"kernel_wall_s": wall},
        quick=quick,
        metrics={"jobs": jobs, "compiled": compiled},
    )
    print(
        f"[{spec.bench_id}] kernel {wall:.3f}s (jobs={jobs}"
        f"{', compiled' if compiled else ''}) -> {path}",
        file=sys.stderr,
    )
    if summary is not None:
        profile_path = write_profile(spec, summary)
        print_profile(spec.bench_id, summary)
        print(f"[{spec.bench_id}] profile -> {profile_path}", file=sys.stderr)
    return 0

"""One repetition of one workload, run inside a fresh child process.

The parent starts the child, the child imports the library, prepares
the workload (the sweep-rerun template store is copied here) and then
runs a closed loop with one caller: the next unit is issued when the
previous one returns.  The loop stops after ``count`` units or once
``seconds`` have passed since the first unit, whichever is given.

Modes: ``plain`` measures; ``traced`` records the layer spans
(:mod:`perfbench.tracing`); ``compiled`` runs every unit on the compiled
engine and times only its compile entry points.  The report is one JSON
object; the outcome digest lets the parent check that every mode and
every repetition of the same units computed the same thing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

clock = time.perf_counter

MODES = ("plain", "traced", "compiled")

#: ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
RSS_PER_MB = 1024.0 * (1024.0 if sys.platform == "darwin" else 1.0)


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_rep(
    workload: str,
    seed: int,
    mode: str = "plain",
    start: int = 0,
    count: Optional[int] = None,
    seconds: Optional[float] = None,
    workdir: str = "",
    template: str = "",
    keep_spans: bool = False,
) -> Dict[str, Any]:
    """Run one repetition and return its report (see the module doc)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if count is None and seconds is None:
        raise ValueError("a repetition needs a unit count or a time budget")
    import repro.api  # noqa: F401 - the public surface users import first
    from repro.obs.prof import cache_stats_delta, cache_stats_snapshot

    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    work = WORKLOADS[workload]()
    copy_start = clock()
    work.prepare(seed, workdir, template)
    copy_s = clock() - copy_start

    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer().install(tracing.layer_targets())
    elif mode == "compiled":
        tracer = tracing.Tracer().install(tracing.compile_targets())
    compiled = mode == "compiled"

    latencies = []
    failures = []
    failed = 0
    digest = hashlib.sha256()
    bytes_before = _tree_bytes(workdir) if workdir else 0
    cache_base = cache_stats_snapshot()
    cpu_start = _cpu_s()
    ready_at = clock()
    deadline = None if seconds is None else ready_at + seconds
    index = start
    try:
        while True:
            if count is not None and index - start >= count:
                break
            if deadline is not None and clock() >= deadline:
                break
            unit = work.unit(seed, index)
            span = tracer.unit(index) if tracer is not None else contextlib.nullcontext()
            t0 = clock()
            try:
                with span:
                    outcome = work.run(unit, compiled)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                problem = f"raised {type(exc).__name__}: {exc}"
                outcome = ["error", index, type(exc).__name__]
            else:
                latencies.append((clock() - t0) * 1e3)
                problem = work.check(unit, outcome)
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"unit {index}: {problem}")
            digest.update(json.dumps(outcome, sort_keys=True).encode("utf-8"))
            digest.update(b"\n")
            index += 1
        wall = clock() - ready_at
        cpu = _cpu_s() - cpu_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    cache = cache_stats_delta(cache_base)
    report: Dict[str, Any] = {
        "workload": workload,
        "mode": mode,
        "seed": seed,
        "start": start,
        "units": index - start,
        "failed": failed,
        "failures": failures,
        "digest": digest.hexdigest(),
        "ready_at": ready_at,
        "copy_s": copy_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies_ms": latencies,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / RSS_PER_MB,
        "cache": cache,
    }
    if mode == "traced":
        layers = tracing.layer_metrics(tracer, cache, work.jobs)
        layers["cache.bytes_written"] = (
            _tree_bytes(workdir) - bytes_before if workdir else 0
        )
        report["layers"] = layers
        if keep_spans:
            report["spans"] = tracer.spans
            report["rollups"] = tracer.rollups
    elif mode == "compiled":
        totals = tracing.totals(tracer)
        wall_units = totals.get("unit", {}).get("total_s", 0.0)
        compile_s = totals.get("compile", {}).get("self_s", 0.0)
        report["compile_frac"] = compile_s / wall_units if wall_units else 0.0
    return report

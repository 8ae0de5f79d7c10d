"""Metrics from repetition reports, and the regression verdicts.

This module imports nothing from the library: the parent process that
starts the repetitions and judges their results never loads the code it
measures.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence

#: Units per repetition of the all-workload suite (``run.py`` without
#: ``--workload``), sized so one repetition takes 10-20 s on a 2-core
#: box, and the tiny counts of ``--smoke``.  ``template`` workloads read
#: a result store seeded once per invocation.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "chaos-consensus": {"suite": 1200, "smoke": 12, "jobs": 1},
    "timed-conformance": {"suite": 800, "smoke": 15, "jobs": 1},
    "tree-hooks": {"suite": 600, "smoke": 7, "jobs": 1},
    "sweep-rerun": {"suite": 300, "smoke": 4, "jobs": 2, "template": True},
}

#: Absolute worsening always tolerated, on top of the relative bound:
#: below these a change is noise, whatever its share of the median.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 5.0}

#: A ``jobs=1`` repetition that got less than this much CPU per wall
#: second shared its core with something else.
CONTENDED_CPU_PER_WALL = 0.9


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    if pct == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100)[pct - 1])


def spread(values: Sequence[float]) -> float:
    """The interquartile range of ``values`` (0 for fewer than two).

    Quartiles interpolate between the runs (the ``inclusive`` method):
    the default ``exclusive`` method makes the IQR of three runs their
    whole range, so one run slowed by a burst of machine load would
    leave the comparison unresolved.
    """
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def rep_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one plain repetition."""
    latencies = report["latencies_ms"]
    wall = report["wall_s"]
    return {
        "setup_s": report["setup_s"],
        "units_per_s": report["units"] / wall if wall else 0.0,
        "unit_p50_ms": percentile(latencies, 50),
        "unit_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": report["maxrss_mb"],
    }


def end_to_end(reports: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each end-to-end metric's median over plain repetitions.

    Load from other tenants of the machine arrives in bursts of a few
    seconds that slow everything running, CPU time included; a median
    over repetitions ignores the one a burst hits.
    """
    per_rep = [rep_metrics(r) for r in reports]
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}


def cpu_per_wall(report: Dict[str, Any]) -> float:
    return report["cpu_s"] / report["wall_s"] if report["wall_s"] else 0.0


def cross_layers(
    plain: Sequence[Dict[str, Any]],
    traced: Dict[str, Any],
    compiled: Dict[str, Any],
) -> Dict[str, float]:
    """Per-layer metrics that compare the traced or compiled repetition
    with plain ones over the same units (``plain`` shares their units)."""
    plain_ms = statistics.median(sum(r["latencies_ms"]) for r in plain)
    traced_ms = sum(traced["latencies_ms"])
    compiled_ms = sum(compiled["latencies_ms"])
    copy = [r["copy_s"] / r["setup_s"] for r in plain if r["setup_s"] > 0]
    layers = dict(traced["layers"])
    layers.update(
        {
            "runner.cpu_per_wall": statistics.median(cpu_per_wall(r) for r in plain),
            "cache.copy_frac": statistics.median(copy) if copy else 0.0,
            "compiled.units_per_s": (
                compiled["units"] / compiled["wall_s"] if compiled["wall_s"] else 0.0
            ),
            "compiled.speedup": plain_ms / compiled_ms if compiled_ms else 0.0,
            "compiled.peak_rss_mb": compiled["maxrss_mb"],
            "compiled.compile_frac": compiled["compile_frac"],
            "trace.overhead_frac": traced_ms / plain_ms - 1.0 if plain_ms else 0.0,
        }
    )
    return layers


# -- BENCHMARK.json and verdicts ----------------------------------------------


def load_benchmark(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def metric_units(benchmark: Dict[str, Any]) -> Dict[str, str]:
    """Every metric name ``BENCHMARK.json`` declares, with its unit."""
    return {
        m["name"]: m["unit"]
        for m in benchmark["end_to_end"] + benchmark["per_layer"]
    }


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    floor: float = 0.0,
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved``.

    The tolerance is ``bound`` times the parent's median, or ``floor``
    if larger.  When either side's run-to-run spread (IQR) is wider than
    the tolerance the comparison is unresolved, unless every run of the
    change beats every run of the parent.
    """
    base = statistics.median(parent)
    tolerance = max(bound * abs(base), floor)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(change) - base)
    if spread(parent) > tolerance or spread(change) > tolerance:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "better"
        return "unresolved"
    if gain < -tolerance:
        return "worse"
    if gain > tolerance:
        return "better"
    return "unchanged"


def compare(
    benchmark: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
) -> List[List[str]]:
    """One ``[workload, metric, verdict, detail]`` row per pair."""
    rows = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        reps_a = a["workloads"][workload]["reps"]
        reps_b = b["workloads"][workload]["reps"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va = [r[name] for r in reps_a if name in r]
            vb = [r[name] for r in reps_b if name in r]
            if not va or not vb:
                rows.append([workload, name, "unresolved", "missing"])
                continue
            result = verdict(
                va, vb, metric["better"], metric["bound"], FLOORS.get(name, 0.0)
            )
            detail = (
                f"{statistics.median(va):.6g} -> {statistics.median(vb):.6g} "
                f"(IQR {spread(va):.3g} / {spread(vb):.3g}, n={len(va)}/{len(vb)})"
            )
            rows.append([workload, name, result, detail])
    return rows

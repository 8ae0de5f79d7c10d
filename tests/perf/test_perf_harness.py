"""Tests of the repository benchmark harness (``benchmarks/perf``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PERF = os.path.join(ROOT, "benchmarks", "perf")
if PERF not in sys.path:
    sys.path.insert(0, PERF)

from perfbench import rep, stats, tracing, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    BENCHMARK = json.load(_fp)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` invocation: its printed lines and its --out JSON."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr[-4000:]
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in WORKLOADS:
            printed[(parts[0], parts[1])] = (float(parts[2]), parts[3])
    with open(out, encoding="utf-8") as fp:
        return printed, json.load(fp), str(out)


def test_benchmark_json_matches_harness():
    assert WORKLOADS == list(stats.WORKLOADS) == list(workloads.WORKLOADS)
    report = {"setup_s": 0.3, "units": 2, "wall_s": 1.0,
              "latencies_ms": [1.0, 2.0], "maxrss_mb": 40.0}
    declared = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(stats.rep_metrics(report)) == sorted(declared)
    assert BENCHMARK["paths"] == ["benchmarks/perf", "tests/perf"]


def test_smoke_emits_every_metric_with_its_unit(smoke):
    printed, _doc, _path = smoke
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            key = (workload, metric["name"])
            assert key in printed, key
            assert printed[key][1] == metric["unit"], key
        assert printed[(workload, "failed_frac")][0] == 0.0


def test_traced_and_compiled_outcomes_equal_plain(smoke):
    _printed, doc, _path = smoke
    with open(os.path.join(PERF, "digests.json"), encoding="utf-8") as fp:
        pinned = json.load(fp)["smoke"]
    for workload in WORKLOADS:
        digests = doc["workloads"][workload]["digests"]
        assert digests["traced"] == digests["plain"][0]
        assert digests["compiled"] == digests["plain"][0]
        assert digests["plain"][0] == pinned[workload]


def test_compare_judges_against_bounds(smoke):
    _printed, doc, path = smoke
    same = _run("compare", path, path)
    assert same.returncode == 0, same.stdout
    assert " worse " not in same.stdout
    slower = dict(doc)
    slower["workloads"] = json.loads(json.dumps(doc["workloads"]))
    for rep_metrics in slower["workloads"]["tree-hooks"]["reps"]:
        rep_metrics["units_per_s"] *= 0.5
    slow_path = path + ".slow.json"
    with open(slow_path, "w", encoding="utf-8") as fp:
        json.dump(slower, fp)
    worse = _run("compare", path, slow_path)
    assert worse.returncode == 1
    assert "tree-hooks units_per_s worse" in worse.stdout
    rows = len(WORKLOADS) * len(BENCHMARK["end_to_end"])
    assert len(worse.stdout.strip().splitlines()) == rows


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0, 10.1, 9.9], [10.05, 10.0, 9.95], "unchanged"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "worse"),
        ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "better"),
        ([10.0, 14.0, 6.0], [9.0, 13.0, 5.0], "unresolved"),
        ([10.0, 14.0, 6.0], [20.0, 21.0, 22.0], "better"),
    ],
)
def test_verdict(parent, change, expected):
    assert stats.verdict(parent, change, "higher", 0.1) == expected


def test_generator_is_a_pure_function_of_the_seed():
    def identity(workload, seed):
        out = []
        for index in range(30):
            unit = workload.unit(seed, index)
            if isinstance(unit, workloads.ExperimentSpec):
                out.append(unit.meta())
            elif isinstance(unit, workloads.TreeInput):
                out.append((unit.label, unit.fd_sequence))
            else:
                out.append([spec.meta() for spec in unit.specs])
        return out

    for name, cls in workloads.WORKLOADS.items():
        first = identity(cls(), 0)
        assert identity(cls(), 0) == first, name
        assert identity(cls(), 1) != first, name


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Traced and compiled repetitions of every workload, in this process,
    plus every wrapped attribute as it was before them."""
    before = [
        (t.owner, t.attr, getattr(t.owner, t.attr), t.attr in vars(t.owner))
        for t in tracing.layer_targets() + tracing.compile_targets()
    ]
    base = tmp_path_factory.mktemp("perf-traced")
    template = base / "template"
    template.mkdir()
    workloads.seed_template(0, str(template))
    reports = {}
    for name in WORKLOADS:
        for mode in ("traced", "compiled"):
            workdir = base / f"{name}-{mode}"
            workdir.mkdir()
            reports[name, mode] = rep.run_rep(
                name, 0, mode, count=3, workdir=str(workdir),
                template=str(template), keep_spans=True,
            )
    return before, reports


def test_wrapped_attributes_are_restored(traced):
    before, _reports = traced
    for owner, attr, original, own in before:
        assert getattr(owner, attr) is original, (owner, attr)
        assert (attr in vars(owner)) == own, (owner, attr)


def test_child_spans_and_residual_add_up_to_unit_wall(traced):
    _before, reports = traced
    for name in WORKLOADS:
        report = reports[name, "traced"]
        assert report["failed"] == 0, report["failures"]
        spans = report["spans"]
        units = [s for s in spans if s[1] == "unit"]
        assert len(units) == 3
        for span_id, _name, start, end, _parent, _unit, residual, _n in units:
            wall = end - start
            children = [s for s in spans if s[4] == span_id]
            for child in children:
                assert start <= child[2] <= child[3] <= end
            covered = sum(c[3] - c[2] for c in children) + sum(
                r[6] for r in report["rollups"] if r[0] == span_id
            )
            assert residual >= -1e-9
            assert covered + residual == pytest.approx(wall, rel=0.01)


def test_layer_metrics_attribute_the_workload_layers(traced):
    _before, reports = traced
    layers = {name: reports[name, "traced"]["layers"] for name in WORKLOADS}
    assert layers["chaos-consensus"]["ioa.steps"] > 0
    assert layers["chaos-consensus"]["system.build.calls"] == 3
    assert layers["timed-conformance"]["faults.oracle.calls"] == 3
    assert layers["timed-conformance"]["timed.messages"] > 0
    assert layers["tree-hooks"]["tree.vertices"] > 0
    assert layers["tree-hooks"]["ioa.steps"] == 0
    assert layers["sweep-rerun"]["cache.get.calls"] == 3 * 8
    assert layers["sweep-rerun"]["cache.hit_ratio"] == 0.5
    for name in ("chaos-consensus", "timed-conformance", "tree-hooks"):
        assert layers[name]["runner.unattributed_frac"] <= 0.10

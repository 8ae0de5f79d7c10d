"""The repository benchmark: four seeded workloads, end to end and by layer.

Usage (from the repository root)::

    python benchmarks/perf/run.py [--seed 0] [--reps 3] [--smoke] [--out FILE]
    python benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python benchmarks/perf/run.py compare A.json B.json

The first form runs every workload: ``--reps`` plain repetitions,
interleaved round-robin across workloads so that drift in machine load
spreads over all of them, then one traced and one compiled repetition
per workload over the same units.  It prints one ``workload metric value
unit`` line per pair, checks every outcome, and writes JSON only to
``--out``.  The second form measures one workload for ``--seconds`` and
prints, as its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and the end-to-end (``--trace 0``) or per-layer (``--trace
1``) metrics that ``BENCHMARK.json`` names.  ``compare`` judges two
``--out`` files against the bounds in ``BENCHMARK.json``.  Every form
exits non-zero on any failure.

Each repetition runs in a fresh child process (``sys.executable`` with
``PYTHONPATH=src``, ``PYTHONHASHSEED=0`` and the engine-selecting
``REPRO_*`` variables removed) and gets a fresh scratch directory under
``.perf_tmp/`` that is deleted when it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from perfbench import stats  # noqa: E402 - needs the path set above

clock = time.perf_counter

#: Plain repetitions per ``--workload`` run, each on its own slice of the
#: input stream; every metric is their median.  Three long repetitions
#: keep at least 200 units in each, so ten lie beyond its 95th percentile.
WORKLOAD_REPS = 3
#: A ``--workload`` invocation must finish within this many seconds.
WORKLOAD_DEADLINE_S = 170.0
#: Per-child limit in the all-workload suite.
SUITE_CHILD_TIMEOUT_S = 600.0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_COMPILED", None)
    env.pop("REPRO_DISABLE_ENABLED_CACHE", None)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ChildFailed(RuntimeError):
    """A child process exited with a non-zero status."""


class Session:
    """Starts children and owns the scratch directory they work in."""

    def __init__(self, deadline: Optional[float], child_timeout: float):
        self.tmp = ROOT / ".perf_tmp" / str(os.getpid())
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.deadline = deadline
        self.child_timeout = child_timeout
        self._templates: Dict[int, str] = {}
        self._serial = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass

    def _spawn(self, args: List[str]) -> str:
        timeout = self.child_timeout
        if self.deadline is not None:
            timeout = min(timeout, max(1.0, self.deadline - clock()))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py")] + args,
            cwd=str(ROOT),
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException:
            # The child and any pool workers it forked share its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise ChildFailed(f"child {args[0]} exited with {proc.returncode}")
        return out

    def template(self, seed: int) -> str:
        """The sweep-rerun template store, seeded once per invocation."""
        if seed not in self._templates:
            path = self.tmp / f"template-{seed}"
            path.mkdir()
            self._spawn(["_seed", str(seed), str(path)])
            self._templates[seed] = str(path)
        return self._templates[seed]

    def rep(self, workload: str, seed: int, **job: Any) -> Dict[str, Any]:
        """Run one repetition in a fresh child; returns its report."""
        self._serial += 1
        workdir = self.tmp / f"rep{self._serial}"
        workdir.mkdir()
        job.update(workload=workload, seed=seed, workdir=str(workdir))
        if stats.WORKLOADS[workload].get("template"):
            job["template"] = self.template(seed)
        try:
            spawn_at = clock()
            out = self._spawn(["_child", json.dumps(job)])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report["ready_at"] - spawn_at
        return report


def _print_metric(workload: str, name: str, value: Any, unit: str) -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{workload} {name} {text} {unit}")


def _environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg": list(os.getloadavg()),
    }


# -- One workload, for a fixed time ------------------------------------------


def run_workload(
    benchmark: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool
) -> int:
    session = Session(clock() + WORKLOAD_DEADLINE_S, WORKLOAD_DEADLINE_S)
    problems: List[str] = []
    try:
        if not trace:
            reports = []
            start = 0
            for _ in range(WORKLOAD_REPS):
                report = session.rep(
                    workload, seed, mode="plain", start=start,
                    seconds=seconds / WORKLOAD_REPS,
                )
                reports.append(report)
                start += report["units"]
            metrics = stats.end_to_end(reports)
            wanted = benchmark["end_to_end"]
        else:
            plain = session.rep(workload, seed, mode="plain", seconds=seconds / 4)
            units = plain["units"]
            traced = session.rep(workload, seed, mode="traced", count=units)
            compiled = session.rep(workload, seed, mode="compiled", count=units)
            reports = [plain, traced, compiled]
            if len({r["digest"] for r in reports}) != 1:
                problems.append("plain, traced and compiled outcomes differ")
            metrics = stats.cross_layers([plain], traced, compiled)
            wanted = benchmark["per_layer"]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    for report in reports:
        problems.extend(report["failures"])
    failed = sum(r["failed"] for r in reports)
    attempted = sum(r["units"] for r in reports)
    result = {}
    for metric in wanted:
        value = metrics[metric["name"]]
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _print_metric(workload, metric["name"], value, metric["unit"])
    for problem in problems:
        print(f"{workload} FAILED {problem}", file=sys.stderr)
    correct = failed == 0 and not problems and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": result,
            },
            sort_keys=True,
        )
    )
    return 0 if correct else 1


# -- Every workload, for a fixed number of units -----------------------------


def run_suite(
    benchmark: Dict[str, Any], seed: int, reps: int, smoke: bool, out: Optional[str]
) -> int:
    size = "smoke" if smoke else "suite"
    names = list(stats.WORKLOADS)
    env = _environment()
    session = Session(None, SUITE_CHILD_TIMEOUT_S)
    plain: Dict[str, List[Dict[str, Any]]] = {w: [] for w in names}
    extra: Dict[str, Dict[str, Dict[str, Any]]] = {}
    try:
        for _ in range(reps):
            for w in names:
                count = stats.WORKLOADS[w][size]
                plain[w].append(session.rep(w, seed, mode="plain", count=count))
        for w in names:
            count = stats.WORKLOADS[w][size]
            extra[w] = {
                mode: session.rep(
                    w, seed, mode=mode, count=count, keep_spans=bool(out)
                )
                for mode in ("traced", "compiled")
            }
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    env["loadavg_end"] = list(os.getloadavg())

    pinned = None
    if seed == 0:
        with open(HERE / "digests.json", encoding="utf-8") as fp:
            pinned = json.load(fp).get(size)
    units = stats.metric_units(benchmark)
    ok = True
    doc: Dict[str, Any] = {
        "schema": "repro.perf/1",
        "seed": seed,
        "reps": reps,
        "smoke": smoke,
        "env": env,
        "workloads": {},
        "spans": {},
    }
    for key in ("nproc", "python", "commit"):
        print(f"env {key} {env[key]}")
    print(f"env loadavg {env['loadavg'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    for w in names:
        reports = plain[w] + [extra[w]["traced"], extra[w]["compiled"]]
        per_rep = [stats.rep_metrics(r) for r in plain[w]]
        medians = stats.end_to_end(plain[w])
        layers = stats.cross_layers(plain[w], extra[w]["traced"], extra[w]["compiled"])
        attempted = sum(r["units"] for r in reports)
        failed = sum(r["failed"] for r in reports)
        digests = sorted({r["digest"] for r in reports})
        problems = [p for r in reports for p in r["failures"]]
        if len(digests) != 1:
            problems.append(f"outcome digests differ across repetitions: {digests}")
        elif pinned is not None and pinned.get(w) != digests[0]:
            problems.append(f"outcome digest {digests[0]} != pinned {pinned.get(w)}")
        contended = [
            k for k, r in enumerate(plain[w])
            if stats.WORKLOADS[w]["jobs"] == 1
            and stats.cpu_per_wall(r) < stats.CONTENDED_CPU_PER_WALL
        ]
        for name, value in medians.items():
            _print_metric(w, name, value, units[name])
        _print_metric(w, "failed_frac", failed / attempted if attempted else 1.0, "ratio")
        _print_metric(w, "unit_samples", len(plain[w][0]["latencies_ms"]), "count")
        for name in sorted(layers):
            _print_metric(w, name, layers[name], units.get(name, ""))
        for k in contended:
            print(f"{w} WARNING rep {k} contended (cpu/wall below "
                  f"{stats.CONTENDED_CPU_PER_WALL})", file=sys.stderr)
        for problem in problems:
            print(f"{w} FAILED {problem}", file=sys.stderr)
        ok = ok and failed == 0 and not problems
        doc["workloads"][w] = {
            "reps": per_rep,
            "median": medians,
            "layers": layers,
            "digests": {
                "plain": [r["digest"] for r in plain[w]],
                "traced": extra[w]["traced"]["digest"],
                "compiled": extra[w]["compiled"]["digest"],
            },
            "attempted": attempted,
            "failed": failed,
            "contended_reps": contended,
        }
        traced = extra[w]["traced"]
        if "spans" in traced:
            doc["spans"][w] = {"spans": traced["spans"], "rollups": traced["rollups"]}
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, sort_keys=True)
            fp.write("\n")
    print("suite " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


# -- compare -----------------------------------------------------------------


def run_compare(benchmark: Dict[str, Any], a_path: str, b_path: str) -> int:
    docs = []
    for path in (a_path, b_path):
        with open(path, encoding="utf-8") as fp:
            docs.append(json.load(fp))
    rows = stats.compare(benchmark, docs[0], docs[1])
    for workload, metric, result, detail in rows:
        print(f"{workload} {metric} {result} {detail}")
    return 1 if any(row[2] == "worse" for row in rows) else 0


# -- Entry point -------------------------------------------------------------


def _child_main(args: List[str]) -> int:
    if args[0] == "_seed":
        from perfbench.workloads import seed_template

        seed_template(int(args[1]), args[2])
        return 0
    from perfbench.rep import run_rep

    report = run_rep(**json.loads(args[1]))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def _terminate(signum: int, _frame: Any) -> None:
    # Unwind through the ``finally`` blocks that kill the running child's
    # process group and delete the scratch directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("_child", "_seed"):
        return _child_main(argv)
    signal.signal(signal.SIGTERM, _terminate)
    benchmark = stats.load_benchmark(str(ROOT / "BENCHMARK.json"))
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            return _usage_error("usage: run.py compare A.json B.json")
        return run_compare(benchmark, argv[1], argv[2])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--workload", choices=sorted(stats.WORKLOADS))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        return _usage_error(f"the library sources are missing ({ROOT / 'src'})")
    if opts.workload is not None:
        if opts.seconds is None or opts.seconds <= 0:
            return _usage_error("--workload needs --seconds > 0")
        return run_workload(benchmark, opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    if opts.reps < 1:
        return _usage_error("--reps must be >= 1")
    return run_suite(benchmark, opts.seed, 1 if opts.smoke else opts.reps, opts.smoke, opts.out)


if __name__ == "__main__":
    raise SystemExit(main())

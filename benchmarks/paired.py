"""Paired kernel times: a base revision against this tree.

Usage::

    python benchmarks/paired.py --base REV [--only e12,e13,e14]
                                [--pairs N] [--quick] [--jobs N]

The base revision is checked out with ``git worktree add --detach`` into
a temporary directory (local history only, no network) and removed when
the command ends.  Each pair runs every selected kernel once per side,
each run in a fresh child process that imports the bench module and the
library from its own tree (``PYTHONPATH=<tree>/src``,
``PYTHONHASHSEED=0``), times one ``BENCH.run_kernel(jobs=N)`` call and
reports that time with a digest of the rows.  With ``--jobs 1`` (the
default) the time is the child's CPU time (``time.process_time()``);
with ``--jobs N > 1`` it is wall time (``time.perf_counter()``), because
CPU time would leave out the workers' CPU and every fork and pool cost.
The header line names the unit.  The side that runs first alternates
from pair to pair, so drift of the host over a sitting lands on both
sides.

Per kernel it prints both sides' median seconds with their quartiles,
the change/base ratio of the medians, the pairs the change won (ties
count for neither) and ``ROWS DIFFER`` when the runs' rows are not all
equal.  Without ``--only`` every kernel of this tree runs; ``--pairs``
defaults to 10.

Exit status: 0, or 1 when some kernel's rows differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Runs in the child: argv is (tree, bench module stem, quick flag, jobs).
_CHILD = r"""
import hashlib, importlib, json, sys, time
from pathlib import Path

tree, stem, quick = Path(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
jobs = int(sys.argv[4])
sys.path.insert(0, str(tree / "benchmarks"))
spec = importlib.import_module(stem).BENCH
import repro
if tree.resolve() not in Path(repro.__file__).resolve().parents:
    sys.exit(f"repro imported from {repro.__file__}, not from {tree}")
clock = time.process_time if jobs == 1 else time.perf_counter
start = clock()
rows = spec.run_kernel(quick=quick, jobs=jobs)
seconds = clock() - start
blob = json.dumps(rows, sort_keys=True, default=repr).encode()
print(json.dumps({"s": seconds, "rows": hashlib.sha256(blob).hexdigest()}))
"""


def bench_stem(tree: Path, bench_id: str) -> str:
    """The module name of bench ``bench_id`` in ``tree``."""
    matches = sorted((tree / "benchmarks").glob(f"bench_{bench_id}_*.py"))
    if len(matches) != 1:
        raise SystemExit(f"no unique bench_{bench_id}_*.py in {tree}")
    return matches[0].stem


def run_child(tree: Path, stem: str, quick: bool, jobs: int) -> Tuple[float, str]:
    """One kernel run in a fresh process: (seconds, rows digest)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tree), stem, "1" if quick else "0", str(jobs)],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{stem} failed in {tree} (exit {done.returncode}):\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["s"], result["rows"]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


class Summary(NamedTuple):
    """One kernel's paired summary; seconds as (q1, median, q3)."""

    pairs: int
    base: Tuple[float, float, float]
    change: Tuple[float, float, float]
    ratio: float  # change median / base median
    wins: int  # pairs where the change took less time; ties count for neither
    rows_differ: bool


def summarize(
    base: Sequence[float],
    change: Sequence[float],
    base_rows: Sequence[str],
    change_rows: Sequence[str],
) -> Summary:
    """``base[k]`` and ``change[k]`` are the seconds of pair ``k``; the
    rows lists hold each run's digest."""
    if len(base) != len(change) or not base:
        raise ValueError("need equally many base and change samples, >= 1")
    base_q, change_q = quartiles(base), quartiles(change)
    return Summary(
        pairs=len(base),
        base=base_q,
        change=change_q,
        ratio=change_q[1] / base_q[1] if base_q[1] else float("inf"),
        wins=sum(1 for b, c in zip(base, change) if c < b),
        rows_differ=len(set(base_rows) | set(change_rows)) != 1,
    )


def header(base: str, pairs: int, quick: bool, jobs: int) -> str:
    """The report's first line; it names the unit of every row."""
    mode = "quick" if quick else "full"
    if jobs == 1:
        return f"paired: base {base} vs this tree, {pairs} pairs, {mode} mode, CPU s"
    return (
        f"paired: base {base} vs this tree, {pairs} pairs, {mode} mode, "
        f"jobs {jobs}, wall s"
    )


def format_row(bench_id: str, summary: Summary) -> str:
    b_q1, b_med, b_q3 = summary.base
    c_q1, c_med, c_q3 = summary.change
    flag = "  ROWS DIFFER" if summary.rows_differ else ""
    return (
        f"{bench_id:<5} base {b_med:.4f} s [{b_q1:.4f}, {b_q3:.4f}]  "
        f"change {c_med:.4f} s [{c_q1:.4f}, {c_q3:.4f}]  "
        f"change/base {summary.ratio:.3f}  "
        f"wins {summary.wins}/{summary.pairs}{flag}"
    )


def paired(
    base_tree: Path, ids: Sequence[str], pairs: int, quick: bool, jobs: int
) -> List[Tuple[str, Summary]]:
    trees = {"base": base_tree, "change": _REPO_ROOT}
    stems = {
        side: {bench_id: bench_stem(tree, bench_id) for bench_id in ids}
        for side, tree in trees.items()
    }
    samples: Dict[str, Dict[str, List[Tuple[float, str]]]] = {
        side: {bench_id: [] for bench_id in ids} for side in trees
    }
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for bench_id in ids:
            for side in order:
                samples[side][bench_id].append(
                    run_child(trees[side], stems[side][bench_id], quick, jobs)
                )
    return [
        (
            bench_id,
            summarize(
                [seconds for seconds, _ in samples["base"][bench_id]],
                [seconds for seconds, _ in samples["change"][bench_id]],
                [rows for _, rows in samples["base"][bench_id]],
                [rows for _, rows in samples["change"][bench_id]],
            ),
        )
        for bench_id in ids
    ]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired fresh-process kernel times, base vs this tree."
    )
    parser.add_argument("--base", required=True, help="git revision to compare")
    parser.add_argument("--only", help="comma-separated bench ids (e12,e13)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes per kernel run"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.only:
        ids = [part.strip().lower() for part in args.only.split(",") if part.strip()]
    else:
        ids = sorted(
            path.stem.split("_")[1]
            for path in (_REPO_ROOT / "benchmarks").glob("bench_*.py")
        )

    scratch = Path(tempfile.mkdtemp(prefix="paired-"))
    base_tree = scratch / "base"
    try:
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", "--quiet", str(base_tree), args.base],
            cwd=_REPO_ROOT,
        )
        if added.returncode != 0:
            raise SystemExit(f"cannot check out {args.base!r} as the base")
        results = paired(base_tree, ids, args.pairs, args.quick, args.jobs)
    finally:
        if base_tree.exists():
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(base_tree)],
                cwd=_REPO_ROOT,
                check=False,
            )
        shutil.rmtree(scratch, ignore_errors=True)

    print(header(args.base, args.pairs, args.quick, args.jobs))
    for bench_id, summary in results:
        print(format_row(bench_id, summary))
    return 1 if any(summary.rows_differ for _, summary in results) else 0


if __name__ == "__main__":
    sys.exit(main())

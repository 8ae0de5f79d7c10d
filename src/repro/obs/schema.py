"""The persisted benchmark artifact: schema, builder, validator.

Every benchmark script emits a ``BENCH_<ID>.json`` file in the repository
root; these files are tracked in git and form the performance trajectory
future optimisation PRs are judged against.  The schema is deliberately
flat and stable:

.. code-block:: json

    {
      "schema": "repro.bench/1",
      "bench_id": "e10",
      "title": "E10: consensus latency/messages ...",
      "quick": false,
      "created_unix": 1754450000,
      "environment": {"python": "3.11.7", "platform": "...",
                      "git_sha": "abc123" },
      "series": {"header": ["detector", "n"], "rows": [["Omega", 3]]},
      "timings": {"kernel_wall_s": 1.234},
      "metrics": {}
    }

``series.rows`` cells are JSON scalars; non-scalar harness values (crash
plans, tuples, actions) are stringified by :func:`jsonify_cell`.
Validate a file with ``python -m repro.obs.schema BENCH_E10.json``.
"""

from __future__ import annotations

import functools
import json
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

#: The current artifact schema identifier.
BENCH_SCHEMA = "repro.bench/1"

#: Keys every artifact must carry, with their required types.
_REQUIRED: Dict[str, type] = {
    "schema": str,
    "bench_id": str,
    "title": str,
    "quick": bool,
    "created_unix": (int, float),  # type: ignore[dict-item]
    "environment": dict,
    "series": dict,
}


def jsonify_cell(value: Any) -> Any:
    """Coerce one series cell into a JSON-serializable scalar/list.

    Scalars pass through; tuples/lists/sets recurse; dicts become
    ``{str(k): ...}``; anything else (e.g. an Action) stringifies.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonify_cell(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify_cell(v) for v in value)
    if isinstance(value, dict):
        return {str(k): jsonify_cell(v) for k, v in value.items()}
    return str(value)


def environment_info() -> Dict[str, str]:
    """Python, platform and git revision of the measuring machine.

    Probed once per process: the answer cannot change within one, and a
    ``git`` subprocess per artifact costs a few milliseconds.  Every call
    returns its own copy.
    """
    return dict(_environment_probe())


@functools.lru_cache(maxsize=None)
def _environment_probe() -> Dict[str, str]:
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


def make_bench_artifact(
    bench_id: str,
    title: str,
    rows: Sequence[Sequence[Any]],
    header: Optional[Sequence[Any]] = None,
    timings: Optional[Dict[str, float]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    quick: bool = False,
    now_fn: Callable[[], float] = time.time,
) -> Dict[str, Any]:
    """Build a schema-conforming artifact document.

    ``now_fn`` supplies the ``created_unix`` stamp — the one legitimate
    wall-clock read in the library (artifacts are *about* a moment in
    time).  It is injectable so tests can freeze the clock; the default
    is the sole entry on the REPRO001 wall-clock allowlist
    (see ``docs/LINT.md``).
    """
    doc: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench_id": bench_id,
        "title": title,
        "quick": bool(quick),
        "created_unix": int(now_fn()),
        "environment": environment_info(),
        "series": {
            "header": [jsonify_cell(h) for h in header] if header else None,
            "rows": [
                [jsonify_cell(cell) for cell in row] for row in rows
            ],
        },
    }
    if timings:
        doc["timings"] = {k: float(v) for k, v in timings.items()}
    if metrics:
        doc["metrics"] = metrics
    return doc


def validate_bench_artifact(doc: Any) -> List[str]:
    """All schema violations of ``doc`` (empty list == valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"artifact must be a JSON object, got {type(doc).__name__}"]
    for key, expected in _REQUIRED.items():
        if key not in doc:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(doc[key], expected):
            errors.append(
                f"key {key!r} must be {getattr(expected, '__name__', expected)}, "
                f"got {type(doc[key]).__name__}"
            )
    if errors:
        return errors
    if doc["schema"] != BENCH_SCHEMA:
        errors.append(
            f"unknown schema {doc['schema']!r} (expected {BENCH_SCHEMA!r})"
        )
    series = doc["series"]
    if "rows" not in series or not isinstance(series["rows"], list):
        errors.append("series.rows must be a list")
    else:
        for k, row in enumerate(series["rows"]):
            if not isinstance(row, list):
                errors.append(f"series.rows[{k}] must be a list")
    header = series.get("header")
    if header is not None and not isinstance(header, list):
        errors.append("series.header must be a list or null")
    if "timings" in doc:
        if not isinstance(doc["timings"], dict) or not all(
            isinstance(v, (int, float)) for v in doc["timings"].values()
        ):
            errors.append("timings must map names to numbers")
    return errors


def validate_bench_file(path: str) -> List[str]:
    """Validate one ``BENCH_*.json`` file; returns the error list."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable artifact: {exc}"]
    return validate_bench_artifact(doc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.obs.schema BENCH_A.json [BENCH_B.json ...]``"""
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths:
        print("usage: python -m repro.obs.schema BENCH_*.json", file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        errors = validate_bench_file(path)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

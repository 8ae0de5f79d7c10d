"""``python -m repro.lint`` — the three-layer lint CLI.

Usage::

    python -m repro.lint [paths ...]
        [--select CODES] [--ignore CODES]
        [--format text|json|github]
        [--contract] [--contract-max-states N] [--contract-cache PATH]
        [--baseline PATH] [--write-baseline]

* With no paths, lints ``src``, ``benchmarks`` and ``examples`` (those
  that exist under the working directory).
* The AST layer covers the syntactic rules (REPRO001-REPRO003,
  REPRO005) and the flow rules (REPRO007, REPRO008).  A ``--select``
  or ``--ignore`` code that names no rule is a usage error.
* ``--contract`` additionally runs the layer-1 semantic automaton
  checks (REPROC01-REPROC06) over every registered detector, the core
  system automata, the algorithm processes, and the spec objects.
  ``--contract-cache PATH`` memoises their findings keyed on a digest
  of the ``repro`` sources, so unchanged CI re-runs skip the
  bounded exploration.
* ``--format github`` renders findings as GitHub Actions ``::error``
  annotations.
* The resolved rule selection is echoed to stderr
  (``repro-lint: selected rules: ...``) so CI can assert a rule is
  actually active.
* Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    write_baseline,
)
from repro.lint.engine import lint_paths, select_rules
from repro.lint.findings import Finding

#: Paths linted when none are given.
DEFAULT_PATHS = ("src", "benchmarks", "examples")

USAGE_EXIT = 2

#: Schema tag of the ``--contract-cache`` file.
CONTRACT_CACHE_SCHEMA = "repro.lint-contract-cache/1"


def contract_cache_key(max_states: Optional[int]) -> str:
    """A digest that changes whenever the contract verdicts could.

    Hashes every ``repro`` source file (path + contents), the package
    version, and the effective state bound — the full input surface of
    the bounded exploration, which imports nothing outside ``repro``.
    """
    from repro import __version__

    digest = hashlib.sha256()
    digest.update(
        f"{CONTRACT_CACHE_SCHEMA}:{__version__}:{max_states}".encode()
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources: List[str] = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                sources.append(os.path.join(dirpath, name))
    for path in sorted(sources):
        rel = os.path.relpath(path, package_root).replace(os.sep, "/")
        digest.update(rel.encode())
        digest.update(b"\0")
        with open(path, "rb") as fp:
            digest.update(fp.read())
        digest.update(b"\0")
    return digest.hexdigest()


def load_contract_cache(path: str, key: str) -> Optional[List[Finding]]:
    """The cached contract findings, or ``None`` on miss/stale/corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != CONTRACT_CACHE_SCHEMA:
        return None
    if doc.get("key") != key:
        return None
    try:
        return [Finding(**entry) for entry in doc.get("findings", [])]
    except TypeError:
        return None


def write_contract_cache(
    path: str, key: str, findings: Sequence[Finding]
) -> None:
    doc = {
        "schema": CONTRACT_CACHE_SCHEMA,
        "key": key,
        "findings": [f.to_dict() for f in findings],
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analysis for the repro harness: determinism "
            "invariants (REPRO001-REPRO008) and the I/O-automaton "
            "contract (REPROC01-REPROC06)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src benchmarks examples)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated codes to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated codes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text; github = Actions annotations)",
    )
    parser.add_argument(
        "--contract",
        action="store_true",
        help="also run the semantic automaton contract checks",
    )
    parser.add_argument(
        "--contract-max-states",
        type=int,
        default=None,
        metavar="N",
        help="override the per-automaton reachable-state bound",
    )
    parser.add_argument(
        "--contract-cache",
        default=None,
        metavar="PATH",
        help=(
            "memoise contract findings in PATH, keyed on a digest of "
            "the repro sources (only meaningful with --contract)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="PATH",
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings into the baseline and exit 0",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)

    paths = args.paths or [p for p in DEFAULT_PATHS if os.path.isdir(p)]
    if not paths:
        print(
            "error: no paths given and none of "
            f"{', '.join(DEFAULT_PATHS)} exist here",
            file=sys.stderr,
        )
        return USAGE_EXIT
    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return USAGE_EXIT

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)

    try:
        rules = select_rules(select, ignore)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    print(
        "repro-lint: selected rules: "
        + ",".join(rule.code for rule in rules),
        file=sys.stderr,
    )

    extra: List[Finding] = []
    if args.contract:
        if args.contract_max_states is not None and args.contract_max_states < 1:
            print(
                "error: --contract-max-states must be >= 1",
                file=sys.stderr,
            )
            return USAGE_EXIT
        cached: Optional[List[Finding]] = None
        cache_key = ""
        if args.contract_cache:
            cache_key = contract_cache_key(args.contract_max_states)
            cached = load_contract_cache(args.contract_cache, cache_key)
        if cached is not None:
            print(
                f"repro-lint: contract cache hit ({args.contract_cache})",
                file=sys.stderr,
            )
            extra.extend(cached)
        else:
            from repro.lint.contract import (
                DEFAULT_MAX_STATES,
                default_contract_subjects,
                run_contract_checks,
            )

            subjects = default_contract_subjects()
            if args.contract_max_states is not None:
                for subject in subjects:
                    if subject.max_states == DEFAULT_MAX_STATES:
                        subject.max_states = args.contract_max_states
            contract_report = run_contract_checks(subjects)
            extra.extend(contract_report.findings)
            if args.contract_cache:
                write_contract_cache(
                    args.contract_cache, cache_key, contract_report.findings
                )
                print(
                    "repro-lint: contract cache written "
                    f"({args.contract_cache})",
                    file=sys.stderr,
                )

    try:
        result = lint_paths(
            paths,
            select=select,
            ignore=ignore,
            baseline_path=args.baseline,
            extra_findings=extra,
        )
    except (ValueError, BaselineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT

    if args.write_baseline:
        count = write_baseline(
            args.baseline, result.findings + result.baselined
        )
        print(f"wrote {count} finding(s) to {args.baseline}")
        return 0

    if args.format == "json":
        print(result.render_json())
    elif args.format == "github":
        print(result.render_github())
    else:
        print(result.render_text())
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())

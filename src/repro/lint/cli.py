"""``python -m repro.lint`` — the three-layer lint CLI.

Usage::

    python -m repro.lint [paths ...]
        [--select CODES] [--ignore CODES]
        [--format text|json|github]
        [--contract] [--contract-max-states N]
        [--baseline PATH] [--write-baseline]

* With no paths, lints ``src``, ``benchmarks`` and ``examples`` (those
  that exist under the working directory).
* The AST layer covers the syntactic rules (REPRO001-REPRO003,
  REPRO005) and the flow rules (REPRO007, REPRO008).  A ``--select``
  or ``--ignore`` code that names no rule is a usage error.
* ``--contract`` additionally runs the layer-1 semantic automaton
  checks (REPROC01-REPROC06) over every registered detector, the core
  system automata, the algorithm processes, and the spec objects.
* ``--format github`` renders findings as GitHub Actions ``::error``
  annotations.
* The resolved rule selection is echoed to stderr
  (``repro-lint: selected rules: ...``) so CI can assert a rule is
  actually active.
* Exit codes: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
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
        extra.extend(run_contract_checks(subjects).findings)

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

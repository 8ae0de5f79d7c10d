"""The lint engine: file discovery, rule dispatch, suppression, baseline.

:func:`lint_paths` is the one entry point both the CLI and the test
suite use.  It walks the given paths for ``*.py`` files (sorted, so
output order is stable across filesystems), parses each once, runs the
selected rules, applies inline suppressions and the committed baseline,
and returns a :class:`LintResult` that knows how to render itself as
text or JSON and what exit code it implies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import ast

from repro.lint.baseline import load_baseline, split_by_baseline
from repro.lint.findings import PARSE_ERROR_CODE, Finding
from repro.lint.rules import ALL_RULES, RULES_BY_CODE, ModuleSource, Rule
from repro.lint.suppress import Suppressions

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".ruff_cache", ".mypy_cache"}


def collect_files(paths: Sequence[str]) -> List[str]:
    """Every ``*.py`` file under ``paths`` (files pass through), sorted."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.add(os.path.normpath(path))
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS
            )
            for name in filenames:
                if name.endswith(".py"):
                    found.add(os.path.normpath(os.path.join(dirpath, name)))
    return sorted(found)


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """The rule instances matching ``--select`` / ``--ignore``.

    Raises :class:`ValueError` on a code that names no rule: a typo (or
    a retired code) would otherwise select nothing and pass.  Contract
    codes ``REPROC*`` and the parse-error code are filtered at the
    finding level instead, so they are accepted here.
    """
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    for code in sorted((selected or set()) | ignored):
        if not (
            code in RULES_BY_CODE
            or code == PARSE_ERROR_CODE
            or code.startswith("REPROC")
        ):
            raise ValueError(f"unknown lint code {code!r}")
    rules = []
    for rule in ALL_RULES:
        if selected is not None and rule.code not in selected:
            continue
        if rule.code in ignored:
            continue
        rules.append(rule)
    return rules


def _load_module(
    path: str, display_path: Optional[str] = None
) -> Tuple[Optional[ModuleSource], Optional[Suppressions], Optional[Finding]]:
    """Parse one file: ``(module, suppressions, parse_error_finding)``."""
    shown = display_path or path.replace(os.sep, "/")
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
    except OSError as exc:
        return (
            None,
            None,
            Finding(shown, 1, 1, PARSE_ERROR_CODE, f"unreadable: {exc}"),
        )
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return (
            None,
            None,
            Finding(
                shown,
                exc.lineno or 1,
                exc.offset or 1,
                PARSE_ERROR_CODE,
                f"syntax error: {exc.msg}",
            ),
        )
    return ModuleSource(shown, text, tree), Suppressions(text.splitlines()), None


def lint_file(
    path: str, rules: Sequence[Rule], display_path: Optional[str] = None
) -> Tuple[List[Finding], int]:
    """Lint one file; ``(findings, suppressed)``."""
    module, suppressions, error = _load_module(path, display_path)
    if module is None or suppressions is None:
        return [error] if error is not None else [], 0
    findings: List[Finding] = []
    suppressed = 0
    for rule in rules:
        for finding in rule.check(module):
            if suppressions.is_suppressed(finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
    return sorted(findings), suppressed


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def render_text(self) -> str:
        lines = [f.format_text() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s) ({len(self.baselined)} baselined, "
            f"{self.suppressed} suppressed inline)"
        )
        return "\n".join(lines + [summary])

    def render_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per finding.

        ``::error file=...,line=...,col=...,title=CODE::CODE message``
        lines surface inline on the PR diff; the trailing summary line
        is plain text (Actions ignores non-command lines).
        """

        def esc(text: str) -> str:
            # Workflow-command escaping: data portion keeps %/newlines.
            return (
                text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A")
            )

        lines = [
            f"::error file={f.path},line={f.line},col={f.col},"
            f"title={f.code}::{esc(f.code + ' ' + f.message)}"
            for f in self.findings
        ]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} "
            f"file(s) ({len(self.baselined)} baselined, "
            f"{self.suppressed} suppressed inline)"
        )
        return "\n".join(lines + [summary])

    def render_json(self) -> str:
        return json.dumps(
            {
                "schema": "repro.lint/1",
                "findings": [f.to_dict() for f in self.findings],
                "baselined": [f.to_dict() for f in self.baselined],
                "suppressed": self.suppressed,
                "files_checked": self.files_checked,
                "exit_code": self.exit_code,
            },
            indent=2,
            sort_keys=True,
        )


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    baseline_path: Optional[str] = None,
    extra_findings: Iterable[Finding] = (),
) -> LintResult:
    """Run the AST layer over ``paths`` and assemble the result.

    ``extra_findings`` lets the CLI merge contract-layer findings into
    the same suppression/baseline pipeline; they are filtered by
    ``select``/``ignore`` like any finding.
    """
    rules = select_rules(select, ignore)
    files = collect_files(paths)
    findings: List[Finding] = []
    suppressed = 0
    for path in files:
        file_findings, file_suppressed = lint_file(path, rules)
        findings.extend(file_findings)
        suppressed += file_suppressed
    selected = set(select) if select else None
    ignored = set(ignore) if ignore else set()
    for finding in extra_findings:
        if selected is not None and finding.code not in selected:
            continue
        if finding.code in ignored:
            continue
        findings.append(finding)
    baseline = load_baseline(baseline_path) if baseline_path else set()
    new, old = split_by_baseline(sorted(findings), baseline)
    return LintResult(
        findings=new,
        baselined=old,
        suppressed=suppressed,
        files_checked=len(files),
    )

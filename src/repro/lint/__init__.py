"""repro.lint: three-layer static analysis for the harness's contracts.

Layer 1 (:mod:`repro.lint.contract`) checks executable I/O automata
against the paper's well-formedness conditions — signature disjointness,
input-enabledness, task partitions, transition purity, task determinism
(Sections 2.1/2.5) — plus pickle round-trips for the spec-like frozen
objects the parallel engine ships to workers.

Layer 2 (:mod:`repro.lint.rules` / :mod:`repro.lint.engine`) lints the
source tree for the determinism conventions the reproducibility claims
rest on: no wall-clock reads, no unseeded randomness, no unordered
iteration into serialization sinks, no mutable defaults in automaton
constructors.

Layer 3 (:mod:`repro.lint.dataflow`) is flow-aware: write hazards
reachable from fork-pool worker entry points (REPRO007) and
seed-derivation discipline (REPRO008).

Run it: ``python -m repro.lint [paths] [--contract]``.  Rule catalog and
workflow: ``docs/LINT.md``.
"""

from repro.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    write_baseline,
)
from repro.lint.contract import (
    ContractReport,
    ContractSubject,
    check_automaton_contract,
    check_picklable,
    default_contract_subjects,
    run_contract_checks,
)
from repro.lint.dataflow import (
    worker_entry_points,
    worker_state_writes,
)
from repro.lint.engine import (
    LintResult,
    collect_files,
    lint_file,
    lint_paths,
)
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, RULES_BY_CODE, rule_codes

__all__ = [
    "ALL_RULES",
    "ContractReport",
    "ContractSubject",
    "DEFAULT_BASELINE",
    "Finding",
    "LintResult",
    "RULES_BY_CODE",
    "check_automaton_contract",
    "check_picklable",
    "collect_files",
    "default_contract_subjects",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "rule_codes",
    "run_contract_checks",
    "worker_entry_points",
    "worker_state_writes",
    "write_baseline",
]

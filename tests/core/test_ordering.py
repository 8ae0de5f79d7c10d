"""Tests for solvability relations and reductions (Sections 5, 7.1)."""

import pytest

from repro.core.ordering import ReductionOutcome, evaluate_reduction
from repro.core.afd import CheckResult
from repro.detectors.registry import known_reductions
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)

PATTERNS = [
    FaultPattern({}, LOCS),
    FaultPattern({2: 5}, LOCS),
    FaultPattern({0: 12}, LOCS),
]


class TestReductionOutcome:
    def test_holds_semantics(self):
        ok = CheckResult.success()
        bad = CheckResult.failure("x")
        assert ReductionOutcome(ok, ok).holds
        assert ReductionOutcome(bad, bad).holds  # vacuous
        assert ReductionOutcome(bad, ok).holds
        assert not ReductionOutcome(ok, bad).holds

    def test_vacuous_flag(self):
        bad = CheckResult.failure("x")
        ok = CheckResult.success()
        assert ReductionOutcome(bad, ok).vacuous
        assert not ReductionOutcome(ok, ok).vacuous


def reduction_by_name(name):
    for r in known_reductions():
        if r.name == name:
            return r
    raise KeyError(name)


@pytest.mark.parametrize("pattern", PATTERNS, ids=["crash-free", "c2", "c0"])
@pytest.mark.parametrize(
    "name",
    [r.name for r in known_reductions()],
)
class TestKnownReductions:
    def test_reduction_holds_nonvacuously(self, name, pattern):
        reduction = reduction_by_name(name)
        source, target, algorithm = reduction.instantiate(LOCS)
        outcome = evaluate_reduction(
            source,
            target,
            algorithm,
            pattern,
            max_steps=2000 if reduction.needs_channels else 700,
            include_channels=reduction.needs_channels,
        )
        assert outcome.premise.ok, (
            f"premise failed: {outcome.premise.reasons}"
        )
        assert outcome.conclusion.ok, (
            f"{name} failed under {dict(pattern.crashes)}: "
            f"{outcome.conclusion.reasons}"
        )


class TestTransitivity:
    """Theorem 15: stacked reductions compose (P >= EvP >= Omega run as
    one system yields Omega-conforming outputs from P)."""

    @pytest.mark.parametrize(
        "pattern", PATTERNS, ids=["crash-free", "c2", "c0"]
    )
    def test_stacked_reduction(self, pattern):
        first = reduction_by_name("P>=EvP")
        second = reduction_by_name("EvP>=Omega")
        p, evp, algorithm1 = first.instantiate(LOCS)
        _evp2, omega, algorithm2 = second.instantiate(LOCS)
        outcome = evaluate_reduction(
            p,
            omega,
            algorithm1,
            pattern,
            max_steps=900,
            extra_components=list(algorithm2.automata()),
        )
        assert outcome.premise.ok
        assert outcome.conclusion.ok, outcome.conclusion.reasons

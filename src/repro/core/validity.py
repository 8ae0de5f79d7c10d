"""Valid sequences over I-hat and failure-detector outputs (Section 3.2).

A sequence t over ``I-hat ∪ O_D`` is *valid* iff

1. for every location i, no event of ``O_{D,i}`` occurs after a ``crash_i``
   event in t; and
2. if no ``crash_i`` occurs in t, then t contains infinitely many events of
   ``O_{D,i}``.

Condition (1) is a safety property, checked exactly on finite sequences.
Condition (2) is a liveness property over infinite sequences; for the
finite traces produced by simulation we check the standard finite
approximation: every live location has at least ``min_live_outputs``
output events (callers pick the threshold; experiments run long enough
that the threshold is comfortably met by any fair run).

:class:`CheckResult`, the verdict type of every specification checker,
lives here so that :mod:`repro.core.afd` (which re-exports it) and the
validity checks share it without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.system.fault_pattern import is_crash


def faulty_locations(t: Sequence[Action]) -> FrozenSet[int]:
    """``faulty(t)``: locations at which a crash event occurs in t."""
    return frozenset(a.location for a in t if is_crash(a))


def live_locations(
    t: Sequence[Action], locations: Sequence[int]
) -> FrozenSet[int]:
    """``live(t)``: locations with no crash event in t."""
    return frozenset(locations) - faulty_locations(t)


def first_crash_index(t: Sequence[Action], location: int) -> Optional[int]:
    """0-based index of the first ``crash_location`` event in t, or None."""
    for k, a in enumerate(t):
        if is_crash(a) and a.location == location:
            return k
    return None


def outputs_at(t: Sequence[Action], location: int) -> List[Action]:
    """The subsequence of non-crash (output) events at ``location``."""
    return [a for a in t if not is_crash(a) and a.location == location]


@dataclass
class CheckResult:
    """Outcome of a specification check, with reasons on failure."""

    ok: bool
    reasons: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def success() -> "CheckResult":
        return CheckResult(True)

    @staticmethod
    def failure(*reasons: str) -> "CheckResult":
        return CheckResult(False, list(reasons))

    def merge(self, other) -> "CheckResult":
        return CheckResult(
            self.ok and other.ok, self.reasons + list(other.reasons)
        )


def check_no_outputs_after_crash(t: Sequence[Action]) -> CheckResult:
    """Validity condition (1), exact on finite sequences."""
    crashed: set = set()
    for k, a in enumerate(t):
        if is_crash(a):
            crashed.add(a.location)
        elif a.location in crashed:
            return CheckResult.failure(
                f"event {a} at index {k} occurs after crash_{a.location}"
            )
    return CheckResult.success()


def check_live_output_liveness(
    t: Sequence[Action],
    locations: Sequence[int],
    min_live_outputs: int,
) -> CheckResult:
    """Validity condition (2), finite approximation.

    Every location without a crash event must have at least
    ``min_live_outputs`` output events in t.
    """
    report = CheckResult.success()
    for i in live_locations(t, locations):
        count = len(outputs_at(t, i))
        if count < min_live_outputs:
            report = report.merge(
                CheckResult.failure(
                    f"live location {i} has only {count} output events "
                    f"(needed >= {min_live_outputs})"
                )
            )
    return report


def is_valid_finite(
    t: Sequence[Action],
    locations: Sequence[int],
    min_live_outputs: int = 1,
) -> CheckResult:
    """Both validity conditions on a finite sequence.

    Condition (1) exactly; condition (2) as the finite approximation
    described in the module docstring.
    """
    return check_no_outputs_after_crash(t).merge(
        check_live_output_liveness(t, locations, min_live_outputs)
    )


def stabilized_suffix(
    t: Sequence[Action], fraction: float = 0.5
) -> List[Action]:
    """The trailing part of t used to evaluate 'eventually forever'
    properties (the t_suff of the paper's eventual specifications).

    By convention the final ``fraction`` of the sequence: long fair runs of
    the generator automata stabilize well before the midpoint, so eventual
    properties that hold in the limit hold on this suffix.
    """
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    start = int(len(t) * (1 - fraction))
    return list(t[start:])


def split_crash_and_outputs(
    t: Sequence[Action],
) -> Tuple[List[Action], List[Action]]:
    """Partition a sequence into (crash events, output events)."""
    crashes = [a for a in t if is_crash(a)]
    outputs = [a for a in t if not is_crash(a)]
    return crashes, outputs

"""Problems, distributed problems, and crash problems (Section 3.1).

A problem P is a triple (I_P, O_P, T_P) of input actions, output actions
and admissible traces, with the *solvability* requirement that some
automaton with that signature has all its fair traces inside T_P.  A crash
problem additionally has every ``crash_i`` among its inputs.

Concretely a :class:`CrashProblem` carries membership predicates for I_P
and O_P and a trace checker for T_P (evaluated on completed finite runs,
like the AFD checkers).  The conditional shape shared by the paper's
specifications — "if the trace satisfies the environment assumptions, then
it satisfies the guarantees" — is captured by
:meth:`CrashProblem.check_conditional`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence, Tuple

from repro.ioa.actions import Action
from repro.core.afd import CheckResult


class CrashProblem(ABC):
    """Base class for crash-problem specifications."""

    def __init__(self, locations: Sequence[int], name: str):
        self.locations: Tuple[int, ...] = tuple(locations)
        self.name = name

    # -- Vocabulary ---------------------------------------------------------

    @abstractmethod
    def is_input(self, action: Action) -> bool:
        """Whether ``action`` is in I_P (crash actions always are)."""

    @abstractmethod
    def is_output(self, action: Action) -> bool:
        """Whether ``action`` is in O_P."""

    def is_event(self, action: Action) -> bool:
        return self.is_input(action) or self.is_output(action)

    def project_events(self, t: Sequence[Action]) -> List[Action]:
        """``t | (I_P ∪ O_P)``."""
        return [a for a in t if self.is_event(a)]

    # -- Membership ------------------------------------------------------------

    @abstractmethod
    def check_assumptions(self, t: Sequence[Action]) -> CheckResult:
        """The spec's environment-side preconditions (e.g. environment
        well-formedness, f-crash limitation for consensus)."""

    @abstractmethod
    def check_guarantees(self, t: Sequence[Action]) -> CheckResult:
        """The spec's guarantees (e.g. agreement, validity, termination)."""

    def check_conditional(self, t: Sequence[Action]) -> CheckResult:
        """Membership in T_P for conditionally-specified problems: if the
        assumptions hold, the guarantees must; otherwise anything goes."""
        assumptions = self.check_assumptions(t)
        if not assumptions.ok:
            return CheckResult.success()
        return self.check_guarantees(t)

    def __repr__(self) -> str:
        return f"<CrashProblem {self.name} over {self.locations}>"

"""f-crash-tolerant binary consensus (Section 9.1).

I_P = {propose(v)_i} ∪ I-hat, O_P = {decide(v)_i}; T_P is the set of
sequences that, *whenever* they satisfy environment well-formedness and
f-crash limitation, satisfy crash validity, agreement, validity and
termination.  Every property of Section 9.1 is checked verbatim by the
methods below.

:class:`CentralizedConsensusSolver` is the witness automaton U of the
bounded-problem analysis (Section 7.3 / Theorem 21): it solves consensus,
is crash independent, and has bounded length (at most n decide outputs).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import FiniteActionSet, Signature
from repro.core.afd import CheckResult
from repro.core.validity import faulty_locations, live_locations
from repro.problems.base import CrashProblem
from repro.system.environment import DECIDE, PROPOSE, decide_action
from repro.system.fault_pattern import crash_action, is_crash


class ConsensusProblem(CrashProblem):
    """The f-crash-tolerant binary consensus specification."""

    def __init__(
        self,
        locations: Sequence[int],
        f: int,
        values: Sequence[int] = (0, 1),
    ):
        if not 0 <= f <= len(locations) - 1:
            raise ValueError(f"f must be in [0, n-1], got {f}")
        super().__init__(locations, f"consensus(f={f})")
        self.f = f
        self.values = tuple(values)

    # -- Vocabulary ---------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        if is_crash(action) and action.location in self.locations:
            return True
        return (
            action.name == PROPOSE
            and action.location in self.locations
            and len(action.payload) == 1
            and action.payload[0] in self.values
        )

    def is_output(self, action: Action) -> bool:
        return (
            action.name == DECIDE
            and action.location in self.locations
            and len(action.payload) == 1
            and action.payload[0] in self.values
        )

    # -- Individual properties (Section 9.1 verbatim) --------------------------

    def decision_values(self, t: Sequence[Action]) -> Set[int]:
        """The set of decision values of t."""
        return {a.payload[0] for a in t if a.name == DECIDE}

    def check_environment_well_formedness(
        self, t: Sequence[Action]
    ) -> CheckResult:
        """(1) at most one propose per location; (2) none after a crash;
        (3) exactly one at each live location."""
        proposals: Dict[int, int] = {}
        crashed: Set[int] = set()
        for k, a in enumerate(t):
            if is_crash(a):
                crashed.add(a.location)
            elif a.name == PROPOSE:
                if a.location in proposals:
                    return CheckResult.failure(
                        f"second proposal at location {a.location} "
                        f"(index {k})"
                    )
                if a.location in crashed:
                    return CheckResult.failure(
                        f"proposal at crashed location {a.location} "
                        f"(index {k})"
                    )
                proposals[a.location] = a.payload[0]
        for i in live_locations(t, self.locations):
            if i not in proposals:
                return CheckResult.failure(
                    f"live location {i} never proposed"
                )
        return CheckResult.success()

    def check_crash_limitation(self, t: Sequence[Action]) -> CheckResult:
        """At most f locations crash."""
        faulty = faulty_locations(t)
        if len(faulty) > self.f:
            return CheckResult.failure(
                f"{len(faulty)} locations crash but f = {self.f}"
            )
        return CheckResult.success()

    def check_crash_validity(self, t: Sequence[Action]) -> CheckResult:
        """No location decides after crashing."""
        crashed: Set[int] = set()
        for k, a in enumerate(t):
            if is_crash(a):
                crashed.add(a.location)
            elif a.name == DECIDE and a.location in crashed:
                return CheckResult.failure(
                    f"decision at crashed location {a.location} (index {k})"
                )
        return CheckResult.success()

    def check_agreement(self, t: Sequence[Action]) -> CheckResult:
        """No two locations decide differently."""
        decisions = self.decision_values(t)
        if len(decisions) > 1:
            return CheckResult.failure(
                f"conflicting decisions: {sorted(decisions)}"
            )
        return CheckResult.success()

    def check_validity(self, t: Sequence[Action]) -> CheckResult:
        """Every decision value was proposed."""
        proposed = {a.payload[0] for a in t if a.name == PROPOSE}
        stray = self.decision_values(t) - proposed
        if stray:
            return CheckResult.failure(
                f"decision value(s) {sorted(stray)} were never proposed"
            )
        return CheckResult.success()

    def check_termination(self, t: Sequence[Action]) -> CheckResult:
        """At most one decision per location; exactly one at live ones."""
        counts: Dict[int, int] = {}
        for a in t:
            if a.name == DECIDE:
                counts[a.location] = counts.get(a.location, 0) + 1
        for i, c in counts.items():
            if c > 1:
                return CheckResult.failure(
                    f"location {i} decided {c} times"
                )
        for i in live_locations(t, self.locations):
            if counts.get(i, 0) != 1:
                return CheckResult.failure(
                    f"live location {i} never decided"
                )
        return CheckResult.success()

    # -- Assembled specification -----------------------------------------------

    def check_assumptions(self, t: Sequence[Action]) -> CheckResult:
        return self.check_environment_well_formedness(t).merge(
            self.check_crash_limitation(t)
        )

    def check_guarantees(self, t: Sequence[Action]) -> CheckResult:
        return (
            self.check_crash_validity(t)
            .merge(self.check_agreement(t))
            .merge(self.check_validity(t))
            .merge(self.check_termination(t))
        )


class CentralizedConsensusSolver(Automaton):
    """The witness automaton U for consensus (Section 7.3).

    Upon the first proposal, it decides that value at every location that
    has neither crashed nor decided yet.  It solves consensus, is crash
    independent (deleting crash events from any finite trace leaves a
    trace — crashes only shrink the enabled set), and has bounded length
    (at most n outputs).  One task per location keeps it task
    deterministic.
    """

    def __init__(
        self,
        locations: Sequence[int],
        values: Sequence[int] = (0, 1),
    ):
        super().__init__("U-consensus")
        self.locations: Tuple[int, ...] = tuple(locations)
        self.values = tuple(values)
        self._signature = Signature(
            inputs=FiniteActionSet(
                tuple(crash_action(i) for i in self.locations)
                + tuple(
                    Action(PROPOSE, i, (v,))
                    for i in self.locations
                    for v in self.values
                )
            ),
            outputs=FiniteActionSet(
                tuple(
                    decide_action(i, v)
                    for i in self.locations
                    for v in self.values
                )
            ),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        # (chosen value or None, decided locations, crashed locations)
        return (None, frozenset(), frozenset())

    def apply(self, state: State, action: Action) -> State:
        chosen, decided, crashed = state
        if is_crash(action):
            return (chosen, decided, crashed | {action.location})
        if action.name == PROPOSE:
            if chosen is None and action.location not in crashed:
                chosen = action.payload[0]
            return (chosen, decided, crashed)
        if action.name == DECIDE:
            return (chosen, decided | {action.location}, crashed)
        return state

    def enabled_locally(self, state: State) -> Iterable[Action]:
        chosen, decided, crashed = state
        if chosen is None:
            return
        for i in self.locations:
            if i not in decided and i not in crashed:
                yield decide_action(i, chosen)

    def tasks(self) -> Sequence[str]:
        return tuple(f"decide[{i}]" for i in self.locations)

    def task_of(self, action: Action) -> Optional[str]:
        if action.name == DECIDE:
            return f"decide[{action.location}]"
        return None

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        chosen, decided, crashed = state
        if chosen is None:
            return ()
        for i in self.locations:
            if task == f"decide[{i}]":
                if i not in decided and i not in crashed:
                    return (decide_action(i, chosen),)
                return ()
        return ()

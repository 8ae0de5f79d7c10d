"""The query-based *participant* failure detector (Section 10.1).

The participant detector is the paper's example of why query-based
interaction is weaker methodologically than the unilateral interaction of
AFDs: because queries flow from processes into the detector, the detector
can leak information about *non-crash* events.  The participant detector
outputs the same location ID to all queries at all times and guarantees
that the process whose ID is output has queried at least once — a fact
about process behavior, not about crashes.

Section 10.1 argues it is *representative* for consensus (each direction
of the reduction is implemented in
:mod:`repro.algorithms.participant_consensus`), whereas Theorem 21 shows
no AFD can be.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import FiniteActionSet, PredicateActionSet, Signature
from repro.system.fault_pattern import CRASH, crash_action

QUERY = "fd-query"
RESPONSE = "fd-response"


def query_action(location: int) -> Action:
    """The action with which the process at ``location`` queries."""
    return Action(QUERY, location)


def response_action(location: int, participant: int) -> Action:
    """The detector's response at ``location`` naming ``participant``."""
    return Action(RESPONSE, location, (participant,))


class ParticipantDetectorAutomaton(Automaton):
    """The participant failure detector.

    State: ``(chosen, pending, crashed)`` where ``chosen`` is the first
    querier's ID (or None), ``pending`` the locations with unanswered
    queries, and ``crashed`` the crashed locations.  The response at every
    location always names ``chosen`` — an ID guaranteed to have queried.
    """

    def __init__(self, locations: Sequence[int]):
        super().__init__("FD-participant")
        self.locations: Tuple[int, ...] = tuple(locations)
        self._signature = Signature(
            inputs=FiniteActionSet(
                tuple(crash_action(i) for i in self.locations)
                + tuple(query_action(i) for i in self.locations)
            ),
            outputs=PredicateActionSet(
                lambda a: (
                    a.name == RESPONSE and a.location in self.locations
                ),
                "fd-response(*)_i",
                keys=((RESPONSE, i) for i in self.locations),
            ),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return (None, frozenset(), frozenset())

    def apply(self, state: State, action: Action) -> State:
        chosen, pending, crashed = state
        if action.name == CRASH:
            return (chosen, pending, crashed | {action.location})
        if action.name == QUERY:
            if chosen is None:
                chosen = action.location
            return (chosen, pending | {action.location}, crashed)
        if action.name == RESPONSE:
            return (chosen, pending - {action.location}, crashed)
        return state

    def enabled_locally(self, state: State) -> Iterable[Action]:
        chosen, pending, crashed = state
        if chosen is None:
            return
        for i in sorted(pending - crashed):
            yield response_action(i, chosen)

    def tasks(self) -> Sequence[str]:
        return tuple(f"resp[{i}]" for i in self.locations)

    def task_of(self, action: Action) -> Optional[str]:
        if action.name == RESPONSE:
            return f"resp[{action.location}]"
        return None

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        chosen, pending, crashed = state
        if chosen is None:
            return ()
        for i in self.locations:
            if task == f"resp[{i}]":
                if i in pending and i not in crashed:
                    return (response_action(i, chosen),)
                return ()
        return ()

    # -- Specification ------------------------------------------------------

    @staticmethod
    def satisfies_participation(trace: Sequence[Action]) -> bool:
        """Every response names a location that queried before it, and all
        responses name the same location."""
        queried = set()
        named = set()
        for a in trace:
            if a.name == QUERY:
                queried.add(a.location)
            elif a.name == RESPONSE:
                participant = a.payload[0]
                if participant not in queried:
                    return False
                named.add(participant)
        return len(named) <= 1

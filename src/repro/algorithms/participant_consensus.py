"""The two reductions of Section 10.1 between consensus and the
query-based *participant* failure detector.

The participant detector is representative for consensus *within the
universe of query-based detectors* — precisely the phenomenon Theorem 21
rules out for AFDs.  Both directions are implemented:

* :func:`consensus_from_participant_algorithm` — each process broadcasts
  its proposal to everyone, *then* queries the detector; the response
  names a location guaranteed to have queried (hence to have finished
  broadcasting), so everyone can safely wait for that location's proposal
  and decide it;
* :func:`participant_from_consensus_algorithm` — upon its first query, a
  process proposes its own location ID to a (black-box) consensus
  instance; the consensus decision is a location that proposed, i.e. one
  that was queried; every query is answered with the decided ID.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, FiniteActionSet, PredicateActionSet
from repro.detectors.participant import (
    QUERY,
    RESPONSE,
    query_action,
    response_action,
)
from repro.system.environment import DECIDE, PROPOSE, decide_action, propose_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

PROPOSAL_MSG = "participant-prop"


@dataclass(frozen=True)
class _FromParticipantState:
    value: Optional[int] = None
    queried: bool = False
    chosen: Optional[int] = None
    proposals: FrozenSet[Tuple[int, int]] = frozenset()  # (sender, value)
    decided: bool = False
    decided_value: Optional[int] = None
    outbox: Tuple[Action, ...] = ()


class ConsensusFromParticipantProcess(ProcessAutomaton):
    """Solve consensus using the participant detector (Section 10.1)."""

    def __init__(self, location: int, locations: Sequence[int]):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        super().__init__(location, name=f"consPart[{location}]")

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.location == self.location
            and a.name in (PROPOSE, RESPONSE),
            f"propose/fd-response at {self.location}",
            keys=((PROPOSE, self.location), (RESPONSE, self.location)),
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            (query_action(self.location),)
            + tuple(decide_action(self.location, v) for v in (0, 1))
        )

    def core_initial(self) -> State:
        return _FromParticipantState()

    def _known_value_of(
        self, core: _FromParticipantState, who: int
    ) -> Optional[int]:
        if who == self.location:
            return core.value
        for sender, value in core.proposals:
            if sender == who:
                return value
        return None

    def core_apply(self, core, action: Action):
        if action.name == PROPOSE:
            if core.value is None:
                value = action.payload[0]
                outbox = core.outbox + tuple(
                    self.send((PROPOSAL_MSG, value), j)
                    for j in self.all_locations
                    if j != self.location
                )
                return replace(core, value=value, outbox=outbox)
            return core
        if action.name == RESPONSE:
            return replace(core, chosen=action.payload[0])
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if (
                isinstance(message, tuple)
                and len(message) == 2
                and message[0] == PROPOSAL_MSG
            ):
                return replace(
                    core, proposals=core.proposals | {(sender, message[1])}
                )
            return core
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == QUERY:
            return replace(core, queried=True)
        if action.name == DECIDE:
            return replace(core, decided=True, decided_value=action.payload[0])
        return core

    def core_enabled(self, core) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif core.value is not None and not core.queried:
            # Query only after the proposal broadcast completed: that is
            # what makes the response's participation guarantee useful.
            yield query_action(self.location)
        elif core.chosen is not None and not core.decided:
            value = self._known_value_of(core, core.chosen)
            if value is not None:
                yield decide_action(self.location, value)

    @staticmethod
    def decision(state: State) -> Optional[int]:
        _failed, core = state
        return core.decided_value if core.decided else None

    @staticmethod
    def decided(state: State) -> bool:
        _failed, core = state
        return core.decided


def consensus_from_participant_algorithm(
    locations: Sequence[int],
) -> DistributedAlgorithm:
    """The consensus-using-participant algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: ConsensusFromParticipantProcess(i, locations) for i in locations
    }
    return DistributedAlgorithm(processes)


@dataclass(frozen=True)
class _FromConsensusState:
    pending: int = 0
    proposed: bool = False
    decided: Optional[int] = None


class ParticipantFromConsensusProcess(ProcessAutomaton):
    """Solve the participant detector using a consensus black box.

    The consensus instance must run over *location IDs* as values (the
    rotating-coordinator and Paxos algorithms in this package are
    value-agnostic; instantiate their processes with ``values=locations``
    via the environment that this automaton itself plays: it emits
    ``propose(i)_i`` into the consensus instance and consumes
    ``decide(l)_i`` from it).
    """

    uses_channels = False  # pure detector transformation: no messages

    def __init__(self, location: int, locations: Sequence[int]):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        super().__init__(location, name=f"partCons[{location}]")

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.location == self.location
            and a.name in (QUERY, DECIDE),
            f"query/decide at {self.location}",
            keys=((QUERY, self.location), (DECIDE, self.location)),
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(propose_action(self.location, l) for l in self.all_locations)
            + tuple(
                response_action(self.location, l) for l in self.all_locations
            )
        )

    def core_initial(self) -> State:
        return _FromConsensusState()

    def core_apply(self, core, action: Action):
        if action.name == QUERY:
            return replace(core, pending=core.pending + 1)
        if action.name == DECIDE:
            return replace(core, decided=action.payload[0])
        if action.name == PROPOSE:
            return replace(core, proposed=True)
        if action.name == RESPONSE:
            return replace(core, pending=max(0, core.pending - 1))
        return core

    def core_enabled(self, core) -> Iterable[Action]:
        if core.pending > 0 and not core.proposed:
            yield propose_action(self.location, self.location)
        elif core.pending > 0 and core.decided is not None:
            yield response_action(self.location, core.decided)


def participant_from_consensus_algorithm(
    locations: Sequence[int],
) -> DistributedAlgorithm:
    """The participant-using-consensus algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: ParticipantFromConsensusProcess(i, locations) for i in locations
    }
    return DistributedAlgorithm(processes)

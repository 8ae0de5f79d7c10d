"""Terminating leader election from a consensus black box.

Each location's driver proposes its own ID into a consensus instance over
location IDs and announces the decision with a ``leader(l)_i`` output.
Consensus validity makes the elected leader a proposer (hence not crashed
initially), agreement makes the election unanimous, and termination makes
every live location announce — the
:class:`repro.problems.leader_election.LeaderElectionProblem` guarantees.

This is also the bounded-problem face of leader election (Section 7.3):
the composed system emits at most n ``leader`` outputs and then quiesces
(modulo the detector).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, FiniteActionSet, PredicateActionSet
from repro.problems.leader_election import LEADER, leader_action
from repro.system.environment import DECIDE, PROPOSE, propose_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton


@dataclass(frozen=True)
class _DriverState:
    proposed: bool = False
    decided: Optional[int] = None
    announced: bool = False


class LeaderElectionDriver(ProcessAutomaton):
    """Proposes its own ID, announces the consensus decision as leader."""

    uses_channels = False  # the consensus instance does the messaging

    def __init__(self, location: int, locations: Sequence[int]):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        super().__init__(location, name=f"elect[{location}]")

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == DECIDE and a.location == self.location,
            f"decide at {self.location}",
            keys=((DECIDE, self.location),),
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(
                propose_action(self.location, l) for l in self.all_locations
            )
            + tuple(
                leader_action(self.location, l) for l in self.all_locations
            )
        )

    def core_initial(self) -> State:
        return _DriverState()

    def core_apply(self, core: _DriverState, action: Action) -> _DriverState:
        if action.name == PROPOSE:
            return replace(core, proposed=True)
        if action.name == DECIDE:
            return replace(core, decided=action.payload[0])
        if action.name == LEADER:
            return replace(core, announced=True)
        return core

    def core_enabled(self, core: _DriverState) -> Iterable[Action]:
        if not core.proposed:
            yield propose_action(self.location, self.location)
        elif core.decided is not None and not core.announced:
            yield leader_action(self.location, core.decided)

    @staticmethod
    def elected(state: State) -> Optional[int]:
        """The announced leader, or None."""
        _failed, core = state
        return core.decided if core.announced else None


def leader_election_algorithm(
    locations: Sequence[int],
) -> DistributedAlgorithm:
    """The driver collection; compose with a consensus algorithm over
    ``values=locations`` (e.g. ``perfect_consensus_algorithm(locations,
    values=locations)``) plus its detector and channels."""
    processes: Dict[int, ProcessAutomaton] = {
        i: LeaderElectionDriver(i, locations) for i in locations
    }
    return DistributedAlgorithm(processes)

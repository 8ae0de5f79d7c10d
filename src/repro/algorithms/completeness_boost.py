"""Boosting weak completeness to strong completeness (Chandra–Toueg [5]).

The classic distributed transformation: every process merges its local
(weak-completeness) detector module's suspicions into a running set,
gossips the set to everyone, removes a location from the set whenever a
message *from* that location arrives (evidence of life), and continually
emits the merged set.  The emitted sets satisfy strong completeness while
preserving the source's accuracy:

* *strong completeness* — a faulty j is eventually permanently suspected
  by some live i (weak completeness of the source); i keeps gossiping; j
  sends only finitely many messages, so after j's last message every live
  process permanently holds j;
* *accuracy preservation* — emitted sets are unions of source sets minus
  evidenced-alive senders, so a location the source never (or eventually
  never) suspects never (eventually never) appears.

This yields the message-passing reductions **Q ⪰ P**, **W ⪰ S**,
**◇Q ⪰ ◇P** and **◇W ⪰ ◇S** — unlike the per-event relays of
:mod:`repro.algorithms.relay`, these need the reliable FIFO channels of
Section 4.3.

Scheduling note: source events arrive once per scheduler cycle, so the
process must do bounded work per event.  Gossip and emission are
*coalesced*: source inputs only update the merged set and raise flags;
the single task then drains, in priority order, (1) the current outbox,
(2) one emission of the merged set, (3) one gossip reload.  Emissions
therefore recur at least once every n+1 turns — infinitely often, as
validity requires — and gossip also recurs forever.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.core.afd import AFD
from repro.detectors.base import sorted_tuple
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

GOSSIP = "fd-gossip"
RELOAD = "boost-reload"


@dataclass(frozen=True)
class BoostState:
    """Core state of one boosting process.

    ``emit_turn`` alternates the two recurring duties (emission and
    gossip reload): source inputs re-raise both flags every scheduler
    cycle, so a fixed priority would starve whichever duty came second.
    """

    suspects: FrozenSet[int] = frozenset()
    outbox: Tuple[Action, ...] = ()
    want_emit: bool = False
    want_gossip: bool = False
    emit_turn: bool = True


class BoostCompletenessProcess(ProcessAutomaton):
    """One location of the completeness-boosting transformation."""

    def __init__(self, location: int, source: AFD, target: AFD):
        self.source = source
        self.target = target
        self.all_locations = tuple(source.locations)
        super().__init__(location, name=f"boost[{location}]")

    def owns_message(self, message) -> bool:
        return (
            isinstance(message, tuple)
            and len(message) == 2
            and message[0] == GOSSIP
        )

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: self.source.is_output(a)
            and a.location == self.location,
            f"O_{self.source.name} at {self.location}",
        )

    def core_outputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: self.target.is_output(a)
            and a.location == self.location,
            f"O_{self.target.name} at {self.location}",
        )

    def core_internals(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == RELOAD and a.location == self.location,
            f"{RELOAD}_{self.location}",
        )

    # -- Transitions -----------------------------------------------------------

    def core_initial(self) -> State:
        return BoostState()

    def _emission(self, suspects: FrozenSet[int]) -> Action:
        return Action(
            self.target.output_name,
            self.location,
            (sorted_tuple(suspects),),
        )

    def core_apply(self, core: BoostState, action: Action) -> BoostState:
        if (
            self.source.is_output(action)
            and action.location == self.location
        ):
            suspects = core.suspects | set(action.payload[0])
            return replace(
                core,
                suspects=frozenset(suspects),
                want_emit=True,
                want_gossip=True,
            )
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if self.owns_message(message):
                suspects = (core.suspects | set(message[1])) - {sender}
                return replace(
                    core,
                    suspects=frozenset(suspects),
                    want_emit=True,
                    want_gossip=True,
                )
            return core
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == self.target.output_name:
            return replace(core, want_emit=False, emit_turn=False)
        if action.name == RELOAD:
            gossip = tuple(
                self.send((GOSSIP, sorted_tuple(core.suspects)), j)
                for j in self.all_locations
                if j != self.location
            )
            return replace(
                core,
                outbox=core.outbox + gossip,
                want_gossip=False,
                emit_turn=True,
            )
        return core

    def core_enabled(self, core: BoostState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif core.want_emit and (core.emit_turn or not core.want_gossip):
            yield self._emission(core.suspects)
        elif core.want_gossip:
            yield Action(RELOAD, self.location)


def completeness_boost_algorithm(
    source: AFD, target: AFD
) -> DistributedAlgorithm:
    """The boosting algorithm over the source detector's locations."""
    processes: Dict[int, ProcessAutomaton] = {
        i: BoostCompletenessProcess(i, source, target)
        for i in source.locations
    }
    return DistributedAlgorithm(processes)

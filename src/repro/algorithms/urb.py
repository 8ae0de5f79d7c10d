"""Majority-echo uniform reliable broadcast (f < n/2, no detector).

The classic all-ack algorithm: on a broadcast (or on first hearing a
message), a process *echoes* it to everyone; a message is delivered once
echoes from a majority of locations have been observed (counting one's
own).  Uniform agreement follows from majority intersection: delivery
anywhere means a majority echoed, at least one of whom is live; a live
echoer's echo reaches every live process, each of which then echoes,
giving every live process a (live) majority of echoes eventually.

URB is solvable *without any failure detector* when f < n/2 — which is
precisely why it contrasts with the bounded problems: its information
content about crashes is nil, yet it is long-lived (unbounded outputs),
so the bounded-problem machinery of Section 7.3 does not apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Hashable, Iterable, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.problems.uniform_broadcast import (
    URB_BCAST,
    URB_DELIVER,
    urb_deliver_action,
)
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

ECHO = "urb-echo"

Key = Tuple[int, Hashable]  # (source, message)


@dataclass(frozen=True)
class UrbState:
    """Core state of one URB process."""

    echoes: FrozenSet[Tuple[int, Hashable, int]] = frozenset()
    relayed: FrozenSet[Key] = frozenset()
    delivered: FrozenSet[Key] = frozenset()
    outbox: Tuple[Action, ...] = ()


class UrbProcess(ProcessAutomaton):
    """One location of the majority-echo URB algorithm."""

    def __init__(self, location: int, locations: Sequence[int]):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        super().__init__(location, name=f"urb[{location}]")

    @property
    def majority(self) -> int:
        return len(self.all_locations) // 2 + 1

    def owns_message(self, message) -> bool:
        return (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == ECHO
        )

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == URB_BCAST and a.location == self.location,
            f"urb-bcast at {self.location}",
            keys=((URB_BCAST, self.location),),
        )

    def core_outputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == URB_DELIVER and a.location == self.location,
            f"urb-deliver at {self.location}",
            keys=((URB_DELIVER, self.location),),
        )

    # -- Transitions -----------------------------------------------------------

    def core_initial(self) -> State:
        return UrbState()

    def _relay(self, core: UrbState, source: int, message) -> UrbState:
        """First sighting of (source, message): echo it to everyone."""
        key = (source, message)
        if key in core.relayed:
            return core
        sends = tuple(
            self.send((ECHO, source, message), j)
            for j in self.all_locations
            if j != self.location
        )
        return replace(
            core,
            relayed=core.relayed | {key},
            echoes=core.echoes | {(source, message, self.location)},
            outbox=core.outbox + sends,
        )

    def core_apply(self, core: UrbState, action: Action) -> UrbState:
        if action.name == URB_BCAST and action.location == self.location:
            return self._relay(core, self.location, action.payload[0])
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if self.owns_message(message):
                _tag, source, payload = message
                core = replace(
                    core,
                    echoes=core.echoes | {(source, payload, sender)},
                )
                return self._relay(core, source, payload)
            return core
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == URB_DELIVER:
            message, source = action.payload
            return replace(
                core, delivered=core.delivered | {(source, message)}
            )
        return core

    def _deliverable(self, core: UrbState) -> Iterable[Key]:
        counts: Dict[Key, int] = {}
        for (source, message, _echoer) in core.echoes:
            key = (source, message)
            counts[key] = counts.get(key, 0) + 1
        for key in sorted(counts, key=repr):
            if counts[key] >= self.majority and key not in core.delivered:
                yield key

    def core_enabled(self, core: UrbState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
            return
        for (source, message) in self._deliverable(core):
            yield urb_deliver_action(self.location, message, source)
            return  # one at a time: single-task determinism

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def delivered_keys(state) -> FrozenSet[Key]:
        _failed, core = state
        return core.delivered


def urb_algorithm(locations: Sequence[int]) -> DistributedAlgorithm:
    """The majority-echo URB algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: UrbProcess(i, locations) for i in locations
    }
    return DistributedAlgorithm(processes)

"""The Chandra–Toueg ◇S consensus algorithm [5] (f < n/2).

The classic rotating-coordinator protocol that made failure detectors
famous, adapted to the unilateral AFD interface (suspect sets arrive as
inputs; the latest set is consulted instead of queried):

round r, coordinator c = locations[(r-1) mod n]:

1. every process sends its (estimate, timestamp) to c;
2. c collects a majority of estimates (its own included), adopts the one
   with the highest timestamp, and proposes it to everyone;
3. every process waits for c's round-r proposal *or* a suspect set
   containing c: on the proposal it adopts (estimate := proposal,
   timestamp := r) and acks; on suspicion it nacks; either way it enters
   round r+1 (sending its estimate to the next coordinator);
4. c collects round-r acks *passively* (they may arrive while it is in a
   later round); a majority of positive acks triggers a flooded,
   relay-once ``decide`` message, on whose first receipt every process
   decides.

Safety is the majority-locking argument: a decided value was adopted
with timestamp r by a majority, so every later coordinator's majority
estimate-collection intersects that majority and the highest-timestamp
estimate is the locked value.  Liveness needs ◇S: eventually some live
location is never suspected, so its next coordinating round gets acks
from every live process — a majority, as f < n/2.

Compared to :mod:`repro.algorithms.consensus_omega` (Paxos over Omega)
this uses strictly weaker detector information (◇S carries no leader
agreement), at the cost of cycling through coordinators.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, FiniteActionSet, PredicateActionSet
from repro.detectors.strong import EVENTUALLY_STRONG_OUTPUT
from repro.system.environment import PROPOSE, decide_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

EST = "ct-est"  # (EST, r, estimate, timestamp) -> coordinator
PROP = "ct-prop"  # (PROP, r, estimate) -> everyone
ACK = "ct-ack"  # (ACK, r, positive) -> coordinator
DEC = "ct-dec"  # (DEC, value) -> everyone, relay once

ADVANCE = "ct-advance"
COORD_PROPOSE = "ct-coord-propose"


@dataclass(frozen=True)
class CtState:
    """Core state of one Chandra–Toueg process."""

    value: Optional[int] = None  # the external proposal
    estimate: Optional[int] = None
    timestamp: int = 0
    round: int = 0  # 0 until the external proposal arrives
    suspects: Tuple[int, ...] = ()
    # (round, sender, estimate, timestamp) collected as coordinator:
    estimates: FrozenSet[Tuple[int, int, int, int]] = frozenset()
    proposed_rounds: FrozenSet[int] = frozenset()
    # (round, estimate) proposals received from coordinators:
    proposals: FrozenSet[Tuple[int, int]] = frozenset()
    # (round, sender, positive) acks collected as coordinator:
    acks: FrozenSet[Tuple[int, int, bool]] = frozenset()
    decide_sent_rounds: FrozenSet[int] = frozenset()
    decided_value: Optional[int] = None
    relayed_decide: bool = False
    decided_out: bool = False
    outbox: Tuple[Action, ...] = ()


class CtConsensusProcess(ProcessAutomaton):
    """One location of the ◇S rotating-coordinator algorithm."""

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        fd_output_name: str = EVENTUALLY_STRONG_OUTPUT,
        values: Sequence[int] = (0, 1),
    ):
        self.all_locations: Tuple[int, ...] = tuple(locations)
        self.fd_output_name = fd_output_name
        self.values = tuple(values)
        super().__init__(location, name=f"consCT[{location}]")

    # -- Geometry ------------------------------------------------------------

    @property
    def majority(self) -> int:
        return len(self.all_locations) // 2 + 1

    def coordinator(self, round_number: int) -> int:
        n = len(self.all_locations)
        return self.all_locations[(round_number - 1) % n]

    def owns_message(self, message) -> bool:
        return (
            isinstance(message, tuple)
            and bool(message)
            and message[0] in (EST, PROP, ACK, DEC)
        )

    # -- Signature ------------------------------------------------------------

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.location == self.location
            and a.name in (PROPOSE, self.fd_output_name),
            f"propose/fd at {self.location}",
            keys=(
                (PROPOSE, self.location),
                (self.fd_output_name, self.location),
            ),
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(decide_action(self.location, v) for v in self.values)
        )

    def core_internals(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name in (ADVANCE, COORD_PROPOSE)
            and a.location == self.location,
            f"ct internals at {self.location}",
            keys=((ADVANCE, self.location), (COORD_PROPOSE, self.location)),
        )

    # -- Round plumbing ---------------------------------------------------------

    def _send_or_keep(self, message, destination: int) -> Tuple[Action, ...]:
        """Send to a peer; a message to self is handled by local state
        updates instead (empty send tuple)."""
        if destination == self.location:
            return ()
        return (self.send(message, destination),)

    def _enter_round(self, core: CtState, round_number: int) -> CtState:
        """Move to ``round_number`` and dispatch the phase-1 estimate."""
        coordinator = self.coordinator(round_number)
        message = (EST, round_number, core.estimate, core.timestamp)
        core = replace(
            core,
            round=round_number,
            outbox=core.outbox + self._send_or_keep(message, coordinator),
        )
        if coordinator == self.location:
            core = replace(
                core,
                estimates=core.estimates
                | {
                    (
                        round_number,
                        self.location,
                        core.estimate,
                        core.timestamp,
                    )
                },
            )
        return core

    def _record_estimate(
        self, core: CtState, round_number, sender, estimate, timestamp
    ) -> CtState:
        return replace(
            core,
            estimates=core.estimates
            | {(round_number, sender, estimate, timestamp)},
        )

    def _maybe_coordinator_propose(self, core: CtState) -> bool:
        """Whether the coordinator-propose step is enabled for some round."""
        return self._proposable_round(core) is not None

    def _proposable_round(self, core: CtState) -> Optional[int]:
        rounds = {
            r
            for (r, _s, _e, _t) in core.estimates
            if r not in core.proposed_rounds
            and self.coordinator(r) == self.location
        }
        for r in sorted(rounds):
            if (
                sum(1 for (rr, *_x) in core.estimates if rr == r)
                >= self.majority
            ):
                return r
        return None

    def _coordinator_propose(self, core: CtState) -> CtState:
        r = self._proposable_round(core)
        assert r is not None
        candidates = [
            (t, e) for (rr, _s, e, t) in core.estimates if rr == r
        ]
        _ts, estimate = max(candidates)
        outbox = core.outbox
        for j in self.all_locations:
            outbox = outbox + self._send_or_keep((PROP, r, estimate), j)
        core = replace(
            core,
            proposed_rounds=core.proposed_rounds | {r},
            outbox=outbox,
            # The coordinator "receives" its own proposal immediately.
            proposals=core.proposals | {(r, estimate)},
        )
        return core

    def _current_proposal(self, core: CtState) -> Optional[int]:
        for (r, estimate) in core.proposals:
            if r == core.round:
                return estimate
        return None

    def _can_advance(self, core: CtState) -> bool:
        if core.round < 1 or core.decided_value is not None:
            return False
        if self._current_proposal(core) is not None:
            return True
        return self.coordinator(core.round) in core.suspects

    def _advance(self, core: CtState) -> CtState:
        """Phase 3: adopt-and-ack or nack, then enter the next round."""
        r = core.round
        coordinator = self.coordinator(r)
        proposal = self._current_proposal(core)
        if proposal is not None:
            core = replace(
                core,
                estimate=proposal,
                timestamp=r,
                outbox=core.outbox
                + self._send_or_keep((ACK, r, True), coordinator),
            )
            if coordinator == self.location:
                core = self._record_ack(core, r, self.location, True)
        else:
            core = replace(
                core,
                outbox=core.outbox
                + self._send_or_keep((ACK, r, False), coordinator),
            )
        return self._enter_round(core, r + 1)

    def _record_ack(
        self, core: CtState, round_number, sender, positive
    ) -> CtState:
        core = replace(
            core, acks=core.acks | {(round_number, sender, positive)}
        )
        # Phase 4, passively: a majority of positive round-r acks decides.
        if round_number in core.decide_sent_rounds:
            return core
        positives = sum(
            1
            for (r, _s, p) in core.acks
            if r == round_number and p
        )
        if positives >= self.majority:
            estimate = next(
                e for (r, e) in core.proposals if r == round_number
            )
            core = self._learn_decision(core, estimate)
            core = replace(
                core,
                decide_sent_rounds=core.decide_sent_rounds
                | {round_number},
            )
        return core

    def _learn_decision(self, core: CtState, value: int) -> CtState:
        if core.decided_value is not None:
            return core
        outbox = core.outbox
        for j in self.all_locations:
            outbox = outbox + self._send_or_keep((DEC, value), j)
        return replace(
            core,
            decided_value=value,
            relayed_decide=True,
            outbox=outbox,
        )

    # -- Transitions -----------------------------------------------------------

    def core_initial(self) -> State:
        return CtState()

    def core_apply(self, core: CtState, action: Action) -> CtState:
        if action.name == PROPOSE:
            if core.value is None:
                core = replace(
                    core,
                    value=action.payload[0],
                    estimate=action.payload[0],
                )
                core = self._enter_round(core, 1)
            return core
        if action.name == self.fd_output_name:
            return replace(core, suspects=tuple(action.payload[0]))
        if self.is_receive(action):
            message, sender = self.received_message(action)
            if not self.owns_message(message):
                return core
            tag = message[0]
            if tag == EST:
                _t, r, estimate, timestamp = message
                return self._record_estimate(
                    core, r, sender, estimate, timestamp
                )
            if tag == PROP:
                _t, r, estimate = message
                return replace(
                    core, proposals=core.proposals | {(r, estimate)}
                )
            if tag == ACK:
                _t, r, positive = message
                return self._record_ack(core, r, sender, positive)
            if tag == DEC:
                (_t, value) = message
                return self._learn_decision(core, value)
            return core
        if action.name == "send":
            if core.outbox and action == core.outbox[0]:
                return replace(core, outbox=core.outbox[1:])
            return core
        if action.name == COORD_PROPOSE and action.location == self.location:
            return self._coordinator_propose(core)
        if action.name == ADVANCE and action.location == self.location:
            return self._advance(core)
        if action.name == "decide":
            return replace(core, decided_out=True)
        return core

    def core_enabled(self, core: CtState) -> Iterable[Action]:
        if core.outbox:
            yield core.outbox[0]
        elif core.decided_value is not None and not core.decided_out:
            yield decide_action(self.location, core.decided_value)
        elif core.decided_value is not None:
            return  # decided: quiescent
        elif self._maybe_coordinator_propose(core):
            yield Action(COORD_PROPOSE, self.location)
        elif self._can_advance(core):
            yield Action(ADVANCE, self.location, (core.round,))

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def decision(state: State) -> Optional[int]:
        _failed, core = state
        return core.decided_value if core.decided_out else None


def ct_consensus_algorithm(
    locations: Sequence[int],
    fd_output_name: str = EVENTUALLY_STRONG_OUTPUT,
    values: Sequence[int] = (0, 1),
) -> DistributedAlgorithm:
    """The Chandra–Toueg ◇S algorithm over ``locations``."""
    processes: Dict[int, ProcessAutomaton] = {
        i: CtConsensusProcess(i, locations, fd_output_name, values)
        for i in locations
    }
    return DistributedAlgorithm(processes)

"""Terminating reliable broadcast by f+1 rounds of flooding over P.

Every process participates in f+1 P-emulated rounds
(:mod:`repro.algorithms.rounds`), each round broadcasting its current
knowledge of the sender's message (the message, or None).  After the
rounds, it delivers the message if known and the SILENT placeholder
otherwise.

Correctness in the crash model: with at most f crashes, some round among
the f+1 is crash-free; after that round every (still live) process has
identical knowledge, and knowledge never diverges again — so deliveries
agree.  If the sender is live, round 1 already spreads the message to
everyone, giving validity.  The sender's own rounds start only after its
``bcast`` input; everyone else starts immediately and simply relays None
until the message reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, Optional, Sequence

from repro.ioa.actions import Action
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.algorithms.rounds import NOT_READY, SynchronousRoundProcess
from repro.detectors.perfect import PERFECT_OUTPUT
from repro.problems.reliable_broadcast import (
    BCAST,
    DELIVER,
    SILENT,
    deliver_action,
)
from repro.system.process import DistributedAlgorithm, ProcessAutomaton


@dataclass(frozen=True)
class TrbApp:
    """Application state: the known message (if any) and delivery flag."""

    value: Optional[Hashable] = None
    delivered: bool = False


class TrbFloodingProcess(SynchronousRoundProcess):
    """One location of the flooding TRB algorithm."""

    message_tag = "trb"

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        sender: int,
        f: int,
        fd_output_name: str = PERFECT_OUTPUT,
    ):
        locations = tuple(locations)
        if sender not in locations:
            raise ValueError(f"sender {sender} not among {locations}")
        self.sender = sender
        self.f = f
        self.num_rounds = f + 1
        super().__init__(
            location, locations, fd_output_name, name=f"trb[{location}]"
        )

    # -- Hooks ---------------------------------------------------------------

    def app_initial(self) -> TrbApp:
        return TrbApp()

    def extra_inputs(self) -> ActionSet:
        if self.location != self.sender:
            from repro.ioa.signature import EmptyActionSet

            return EmptyActionSet()
        return PredicateActionSet(
            lambda a: (
                a.name == BCAST
                and a.location == self.sender
                and len(a.payload) == 1
            ),
            f"bcast at {self.sender}",
            keys=((BCAST, self.sender),),
        )

    def core_outputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: a.name == DELIVER and a.location == self.location,
            f"deliver at {self.location}",
            keys=((DELIVER, self.location),),
        )

    def on_input(self, app: TrbApp, action: Action) -> TrbApp:
        if action.name == BCAST and self.location == self.sender:
            if app.value is None:
                return replace(app, value=action.payload[0])
            return app
        if action.name == DELIVER:
            return replace(app, delivered=True)
        return app

    def start_payload(self, app: TrbApp):
        if self.location == self.sender and app.value is None:
            return NOT_READY  # the sender waits for its bcast input
        return app.value  # None encodes "nothing known yet"

    def fold_round(
        self, app: TrbApp, completed_round: int, received: Dict[int, Hashable]
    ) -> TrbApp:
        if app.value is not None:
            return app
        for payload in received.values():
            if payload is not None:
                return replace(app, value=payload)
        return app

    def next_payload(self, app: TrbApp, upcoming_round: int):
        return app.value

    def final_output(self, app: TrbApp) -> Optional[Action]:
        if app.delivered:
            return None
        value = app.value if app.value is not None else SILENT
        return deliver_action(self.location, value)

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def delivery(state):
        """The delivered value (possibly SILENT), or None if undelivered."""
        _failed, core = state
        if not core.app.delivered:
            return None
        return core.app.value if core.app.value is not None else SILENT


def trb_flooding_algorithm(
    locations: Sequence[int],
    sender: int,
    f: int,
    fd_output_name: str = PERFECT_OUTPUT,
) -> DistributedAlgorithm:
    """The flooding TRB algorithm for a designated sender."""
    processes: Dict[int, ProcessAutomaton] = {
        i: TrbFloodingProcess(i, locations, sender, f, fd_output_name)
        for i in locations
    }
    return DistributedAlgorithm(processes)

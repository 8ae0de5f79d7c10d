"""Non-blocking atomic commit over P plus a consensus black box.

The standard two-phase construction:

1. *vote exchange* — one P-emulated round
   (:mod:`repro.algorithms.rounds`): every location broadcasts its vote
   and collects the others' (or suspicions);
2. *outcome agreement* — each location proposes 1 (commit) to a binary
   consensus instance iff it received a YES vote from *every* location,
   and 0 (abort) otherwise; the consensus decision is announced as the
   verdict.

NBAC's properties reduce to consensus properties: *agreement* is
consensus agreement; *commit-validity* holds because a 1-proposal
witnesses n YES votes (consensus validity); *abort-validity* holds
because when all vote YES and nobody crashes, P's accuracy means nobody
is skipped, so every proposal is 1 and consensus must decide 1;
*termination* is consensus termination plus round-engine termination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence

from repro.ioa.actions import Action
from repro.ioa.signature import ActionSet, FiniteActionSet
from repro.algorithms.rounds import NOT_READY, SynchronousRoundProcess
from repro.detectors.perfect import PERFECT_OUTPUT
from repro.problems.atomic_commit import (
    ABORT,
    COMMIT,
    NO,
    VOTE,
    YES,
    abort_action,
    commit_action,
    vote_action,
)
from repro.system.environment import DECIDE, PROPOSE, propose_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton


@dataclass(frozen=True)
class NbacApp:
    """Application state of one NBAC process."""

    vote: Optional[int] = None
    all_yes: Optional[bool] = None  # known after the vote round
    proposed: bool = False
    decided: Optional[int] = None  # consensus outcome
    verdict_out: bool = False


class NbacProcess(SynchronousRoundProcess):
    """One location of the NBAC construction (vote round + driver)."""

    message_tag = "nbac-vote"
    num_rounds = 1

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        fd_output_name: str = PERFECT_OUTPUT,
    ):
        super().__init__(
            location, locations, fd_output_name, name=f"nbac[{location}]"
        )

    # -- Signature additions ---------------------------------------------------

    def extra_inputs(self) -> ActionSet:
        return FiniteActionSet(
            (
                vote_action(self.location, YES),
                vote_action(self.location, NO),
                Action(DECIDE, self.location, (0,)),
                Action(DECIDE, self.location, (1,)),
            )
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            (
                propose_action(self.location, 0),
                propose_action(self.location, 1),
                commit_action(self.location),
                abort_action(self.location),
            )
        )

    # -- Hooks ---------------------------------------------------------------------

    def app_initial(self) -> NbacApp:
        return NbacApp()

    def on_input(self, app: NbacApp, action: Action) -> NbacApp:
        if action.name == VOTE and app.vote is None:
            return replace(app, vote=action.payload[0])
        if action.name == PROPOSE:
            return replace(app, proposed=True)
        if action.name == DECIDE:
            return replace(app, decided=action.payload[0])
        if action.name in (COMMIT, ABORT):
            return replace(app, verdict_out=True)
        return app

    def start_payload(self, app: NbacApp):
        return app.vote if app.vote is not None else NOT_READY

    def fold_round(
        self, app: NbacApp, completed_round: int, received: Dict[int, int]
    ) -> NbacApp:
        # A skipped location (crashed before its vote arrived) counts
        # against commit, as does any NO vote.
        everyone_heard = len(received) == len(self.all_locations) - 1
        all_yes = (
            everyone_heard
            and app.vote == YES
            and all(v == YES for v in received.values())
        )
        return replace(app, all_yes=all_yes)

    def next_payload(self, app: NbacApp, upcoming_round: int):
        return app.vote  # unreachable with num_rounds == 1; kept total

    def final_output(self, app: NbacApp) -> Optional[Action]:
        if not app.proposed:
            return propose_action(self.location, 1 if app.all_yes else 0)
        return None

    def post_final_enabled(self, app: NbacApp) -> Iterable[Action]:
        if app.decided is not None and not app.verdict_out:
            if app.decided == 1:
                yield commit_action(self.location)
            else:
                yield abort_action(self.location)

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def verdict(state) -> Optional[str]:
        """COMMIT/ABORT once output, else None."""
        _failed, core = state
        if not core.app.verdict_out:
            return None
        return COMMIT if core.app.decided == 1 else ABORT


def nbac_algorithm(
    locations: Sequence[int],
    fd_output_name: str = PERFECT_OUTPUT,
) -> DistributedAlgorithm:
    """The NBAC drivers; compose with a binary consensus algorithm (e.g.
    ``perfect_consensus_algorithm(locations)``), the detector, channels
    and the crash automaton."""
    processes: Dict[int, ProcessAutomaton] = {
        i: NbacProcess(i, locations, fd_output_name) for i in locations
    }
    return DistributedAlgorithm(processes)

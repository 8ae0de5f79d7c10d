"""FloodMin: k-set agreement over the perfect detector P.

The classic synchronous algorithm, run over P-emulated rounds
(:mod:`repro.algorithms.rounds`): every process floods its current
minimum for ``floor(f/k) + 1`` rounds and then decides it.  In the
synchronous crash model, at most k distinct values survive: hiding an
extra value for a round costs the adversary a crash, and it can afford
fewer than k per round on average.

Two precision notes for this asynchronous emulation:

* **k = 1 is consensus** (rounds = f + 1) and is *fully* guaranteed here:
  divergence would need a chain of f+1 distinct crashed carriers, one per
  round — a process that never crashes broadcasts its minimum and P's
  strong accuracy forces everyone to fold it (a live sender can never be
  skipped), and a live *receiver* of the final round must likewise wait
  for a live sender's message.
* **k >= 2**: emulated rounds are marginally weaker than synchronous
  rounds — a suspicion can race a fully-sent message still in a channel,
  letting one real crash produce skips in several rounds.  Under the fair
  schedulers in this repository the races do not materialize (channel
  delivery precedes the advance in every cycle) and the classic bound is
  validated empirically across crash sweeps; for an adversarially
  scheduled deployment, instantiate with ``rounds = f + 1``, which is
  safe for every k by the chain argument above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from repro.ioa.actions import Action
from repro.ioa.signature import ActionSet, FiniteActionSet
from repro.algorithms.rounds import NOT_READY, SynchronousRoundProcess
from repro.detectors.perfect import PERFECT_OUTPUT
from repro.system.environment import DECIDE, PROPOSE, decide_action
from repro.system.process import DistributedAlgorithm, ProcessAutomaton


@dataclass(frozen=True)
class FloodMinApp:
    """Application state: the running minimum and the decision flag."""

    value: Optional[int] = None
    decided: bool = False


class FloodMinProcess(SynchronousRoundProcess):
    """One location of FloodMin for k-set agreement."""

    message_tag = "floodmin"

    def __init__(
        self,
        location: int,
        locations: Sequence[int],
        k: int,
        f: int,
        values: Sequence[int] = None,
        fd_output_name: str = PERFECT_OUTPUT,
        rounds: int = None,
    ):
        locations = tuple(locations)
        if not 1 <= k <= len(locations):
            raise ValueError(f"k must be in [1, n], got {k}")
        if not 0 <= f <= len(locations) - 1:
            raise ValueError(f"f must be in [0, n-1], got {f}")
        self.k = k
        self.f = f
        self.values = tuple(values) if values is not None else locations
        self.num_rounds = rounds if rounds is not None else f // k + 1
        super().__init__(
            location, locations, fd_output_name, name=f"floodmin[{location}]"
        )

    # -- Hooks ---------------------------------------------------------------

    def app_initial(self) -> FloodMinApp:
        return FloodMinApp()

    def extra_inputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(
                Action(PROPOSE, self.location, (v,)) for v in self.values
            )
        )

    def core_outputs(self) -> ActionSet:
        return FiniteActionSet(
            tuple(decide_action(self.location, v) for v in self.values)
        )

    def on_input(self, app: FloodMinApp, action: Action) -> FloodMinApp:
        if action.name == PROPOSE and app.value is None:
            return replace(app, value=action.payload[0])
        if action.name == DECIDE:
            return replace(app, decided=True)
        return app

    def start_payload(self, app: FloodMinApp):
        return app.value if app.value is not None else NOT_READY

    def fold_round(
        self, app: FloodMinApp, completed_round: int, received: Dict[int, int]
    ) -> FloodMinApp:
        candidates = [app.value] + list(received.values())
        return replace(app, value=min(candidates))

    def next_payload(self, app: FloodMinApp, upcoming_round: int):
        return app.value

    def final_output(self, app: FloodMinApp) -> Optional[Action]:
        if app.decided:
            return None
        return decide_action(self.location, app.value)

    # -- Introspection -------------------------------------------------------------

    @staticmethod
    def decision(state) -> Optional[int]:
        _failed, core = state
        return core.app.value if core.app.decided else None


def floodmin_algorithm(
    locations: Sequence[int],
    k: int,
    f: int,
    values: Sequence[int] = None,
    fd_output_name: str = PERFECT_OUTPUT,
    rounds: int = None,
) -> DistributedAlgorithm:
    """FloodMin over ``locations`` for k-set agreement with f crashes."""
    processes: Dict[int, ProcessAutomaton] = {
        i: FloodMinProcess(
            i, locations, k, f, values, fd_output_name, rounds
        )
        for i in locations
    }
    return DistributedAlgorithm(processes)

"""Environment automata (Sections 4.5 and 9.2).

The environment models the external world.  For consensus, the paper fixes
the specific well-formed environment E_C of Algorithm 4: one automaton
E_{C,i} per location with output actions ``propose(0)_i`` / ``propose(1)_i``
(each in its own task), inputs ``decide(v)_i`` and ``crash_i``, where any
propose or crash event permanently disables further proposals.

Two variants are provided:

* :class:`ConsensusEnvironmentLocation` — the faithful Algorithm 4
  automaton: *both* propose values stay enabled until one fires, so the
  scheduler (or the tagged tree of Section 8) resolves the choice.  This is
  the environment used in the valence/hook analysis, where nodes N_all0 and
  N_all1 must both exist (Proposition 51).
* :class:`ScriptedConsensusEnvironment` — a well-formed environment whose
  location i proposes a fixed value; convenient for consensus experiments
  with chosen inputs.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.composition import Composition
from repro.ioa.signature import FiniteActionSet, Signature
from repro.system.fault_pattern import CRASH, crash_action

PROPOSE = "propose"
DECIDE = "decide"


def propose_action(location: int, value: int) -> Action:
    """The action ``propose(v)_i``."""
    return Action(PROPOSE, location, (value,))


def decide_action(location: int, value: int) -> Action:
    """The action ``decide(v)_i``."""
    return Action(DECIDE, location, (value,))


class ConsensusEnvironmentLocation(Automaton):
    """Algorithm 4: the automaton E_{C,i}.

    State: ``stop`` (bool).  Tasks ``env0`` = {propose(0)_i} and ``env1`` =
    {propose(1)_i}; each propose sets ``stop``; crash sets ``stop``;
    decide inputs are absorbed.
    """

    def __init__(self, location: int, values: Tuple[int, ...] = (0, 1)):
        super().__init__(f"env[{location}]")
        self.location = location
        self.values = values
        self._signature = Signature(
            inputs=FiniteActionSet(
                (crash_action(location),)
                + tuple(decide_action(location, v) for v in values)
            ),
            outputs=FiniteActionSet(
                tuple(propose_action(location, v) for v in values)
            ),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return False  # stop flag

    def apply(self, state: State, action: Action) -> State:
        if action.name in (PROPOSE, CRASH):
            return True
        return state  # decide inputs: no effect

    def enabled_locally(self, state: State) -> Iterable[Action]:
        if not state:
            for v in self.values:
                yield propose_action(self.location, v)

    def tasks(self) -> Sequence[str]:
        return tuple(f"env{v}" for v in self.values)

    def task_of(self, action: Action) -> Optional[str]:
        if action.name == PROPOSE:
            return f"env{action.payload[0]}"
        return None

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        if state:
            return ()
        for v in self.values:
            if task == f"env{v}":
                return (propose_action(self.location, v),)
        return ()


class ConsensusEnvironment(Composition):
    """The environment E_C: the composition of E_{C,i} for all i (§9.2)."""

    def __init__(self, locations: Sequence[int]):
        super().__init__(
            [ConsensusEnvironmentLocation(i) for i in locations],
            name="envC",
        )
        self.locations = tuple(locations)


class _ScriptedLocation(ConsensusEnvironmentLocation):
    """E_{C,i} restricted to proposing one fixed value.

    Still well-formed: at most one proposal, none after a crash, exactly
    one at live locations in fair traces.
    """

    def __init__(self, location: int, value: int):
        super().__init__(location, values=(value,))
        self.value = value

    def enabled_locally(self, state: State) -> Iterable[Action]:
        if not state:
            yield propose_action(self.location, self.value)

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        if state or task != f"env{self.value}":
            return ()
        return (propose_action(self.location, self.value),)


class ScriptedConsensusEnvironment(Composition):
    """A well-formed consensus environment proposing fixed values.

    Parameters
    ----------
    proposals:
        Mapping from location to the value it proposes.
    """

    def __init__(self, proposals: Mapping[int, int]):
        super().__init__(
            [_ScriptedLocation(i, v) for i, v in sorted(proposals.items())],
            name="envScripted",
        )
        self.proposals = dict(proposals)
        self.locations = tuple(sorted(proposals))

"""Process automata (Section 4.2).

A process automaton ``proc(i)`` lives at location i; all its actions occur
at i.  It receives ``crash_i`` and ``receive(m, j)_i`` as inputs, emits
``send(m, j)_i`` as outputs, and may have further external actions (failure
detector outputs as inputs, problem actions such as ``propose``/``decide``).
When ``crash_i`` occurs, all locally controlled actions are permanently
disabled.

:class:`ProcessAutomaton` factors out the crash-disabling wrapper: concrete
algorithms implement the ``core_*`` hooks over their own state and never
deal with crashes explicitly.  Process states are ``(failed, core_state)``
pairs.  After a crash, input actions are still absorbed (inputs are enabled
in every state) but leave the core state untouched, so a crashed process is
inert as the model requires.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, Hashable, Iterable, Mapping, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import (
    ActionSet,
    EmptyActionSet,
    FiniteActionSet,
    PredicateActionSet,
    Signature,
    UnionActionSet,
)
from repro.system.channel import RECEIVE, SEND, send_action
from repro.system.fault_pattern import CRASH, crash_action


class ProcessAutomaton(Automaton):
    """Base class for located, crash-disabled process automata.

    Subclasses implement:

    * :meth:`core_initial` — the algorithm's initial state (immutable);
    * :meth:`core_apply` — the transition function over core states;
    * :meth:`core_enabled` — enabled locally controlled actions;

    and may override :meth:`core_inputs`, :meth:`core_outputs`,
    :meth:`core_internals` to extend the signature, and
    :meth:`tasks`/:meth:`task_of` for a finer task structure.
    """

    #: Subclasses that never exchange messages (detector relays, FD
    #: wrappers) set this to False so their signature omits the
    #: send/receive families — otherwise two process automata at the same
    #: location would both claim the ``send(*,*)_i`` outputs and could not
    #: be composed into one system.
    uses_channels = True

    def __init__(self, location: int, name: str = ""):
        super().__init__(name or f"proc[{location}]")
        self.location = location
        input_parts = [FiniteActionSet((crash_action(location),))]
        output_parts = []
        if self.uses_channels:
            input_parts.append(
                PredicateActionSet(
                    lambda a: a.name == RECEIVE and a.location == location,
                    f"receive(*,*)_{location}",
                    keys=((RECEIVE, location),),
                )
            )
            output_parts.append(
                PredicateActionSet(
                    lambda a: (
                        a.name == SEND
                        and a.location == location
                        and self.owns_message(a.payload[0])
                    ),
                    f"send(*,*)_{location}",
                    keys=((SEND, location),),
                )
            )
        input_parts.append(self.core_inputs())
        output_parts.append(self.core_outputs())
        self._signature = Signature(
            inputs=UnionActionSet(input_parts),
            outputs=UnionActionSet(output_parts),
            internals=self.core_internals(),
        )

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------

    @abstractmethod
    def core_initial(self) -> State:
        """The algorithm's initial core state."""

    @abstractmethod
    def core_apply(self, core: State, action: Action) -> State:
        """Apply an action (input or locally controlled) to the core."""

    @abstractmethod
    def core_enabled(self, core: State) -> Iterable[Action]:
        """Locally controlled actions enabled in ``core``."""

    def owns_message(self, message: Hashable) -> bool:
        """Whether this process claims ``send`` actions carrying
        ``message``.

        When two message-passing process automata share a location (a
        protocol layered over a consensus black box, say), each must own
        a disjoint slice of the send vocabulary or the composition's
        one-output-owner rule is violated.  Override to filter by the
        protocol's message tag; the default owns everything.
        """
        return True

    def core_inputs(self) -> ActionSet:
        """Additional input actions (besides crash and receive)."""
        return EmptyActionSet()

    def core_outputs(self) -> ActionSet:
        """Additional output actions (besides send)."""
        return EmptyActionSet()

    def core_internals(self) -> ActionSet:
        """Internal actions."""
        return EmptyActionSet()

    # ------------------------------------------------------------------
    # Automaton interface
    # ------------------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return (False, self.core_initial())

    def apply(self, state: State, action: Action) -> State:
        failed, core = state
        if action.name == CRASH and action.location == self.location:
            return (True, core)
        if failed:
            # Crashed: inputs are absorbed, locally controlled actions are
            # disabled (and hence never applied by a correct scheduler).
            return state
        return (False, self.core_apply(core, action))

    def enabled_locally(self, state: State) -> Iterable[Action]:
        failed, core = state
        if failed:
            return ()
        return self.core_enabled(core)

    # ------------------------------------------------------------------
    # Helpers for algorithm code
    # ------------------------------------------------------------------

    def send(self, message: Hashable, destination: int) -> Action:
        """The ``send(message, destination)`` action of this process."""
        return send_action(self.location, message, destination)

    @staticmethod
    def is_receive(action: Action) -> bool:
        return action.name == RECEIVE

    @staticmethod
    def received_message(action: Action) -> Tuple[Hashable, int]:
        """Unpack a receive action into (message, sender)."""
        return action.payload[0], action.payload[1]


class DistributedAlgorithm:
    """A collection of process automata, one per location (Section 4.2).

    Iterable; indexable by location.
    """

    def __init__(self, processes: Mapping[int, ProcessAutomaton]):
        self._processes: Dict[int, ProcessAutomaton] = dict(processes)
        for location, proc in self._processes.items():
            if proc.location != location:
                raise ValueError(
                    f"process {proc.name} has location {proc.location}, "
                    f"registered at {location}"
                )

    @property
    def locations(self) -> Tuple[int, ...]:
        return tuple(sorted(self._processes))

    def __getitem__(self, location: int) -> ProcessAutomaton:
        return self._processes[location]

    def __iter__(self):
        return iter(self._processes.values())

    def __len__(self) -> int:
        return len(self._processes)

    def automata(self) -> Sequence[ProcessAutomaton]:
        return [self._processes[i] for i in self.locations]

"""Executions, schedules and traces (Section 2.2).

An *execution fragment* of an automaton is an alternating sequence
``s0, a1, s1, a2, ...`` of states and actions where each action is enabled
in the preceding state.  Its *schedule* is the subsequence of events (all
actions, internal and external); its *trace* is the subsequence of external
actions only.

The paper indexes sequences from 1 and defines ``t[x] = bottom`` when the
sequence has fewer than ``x`` events; :meth:`ActionSequence.at` implements
exactly that convention.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.ioa.actions import Action, BOTTOM
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import ActionSet

Selector = Union[ActionSet, Callable[[Action], bool], Iterable[Action]]


def _as_predicate(selector: Selector) -> Callable[[Action], bool]:
    """Normalize a projection selector into a membership predicate."""
    if isinstance(selector, ActionSet):
        return lambda a: a in selector
    if callable(selector):
        return selector
    members = frozenset(selector)
    return lambda a: a in members


class ActionSequence(Sequence[Action]):
    """A finite sequence of actions with the paper's indexing convention."""

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Action] = ()):
        self._events: Tuple[Action, ...] = tuple(events)

    # -- Sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(self._events[index])
        return self._events[index]

    def __iter__(self) -> Iterator[Action]:
        return iter(self._events)

    def __eq__(self, other) -> bool:
        if isinstance(other, ActionSequence):
            return self._events == other._events
        if isinstance(other, (tuple, list)):
            return self._events == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._events))

    # -- Paper conventions -------------------------------------------------

    def at(self, x: int):
        """The paper's ``t[x]``: 1-based indexing, ``BOTTOM`` past the end."""
        if x < 1 or x > len(self._events):
            return BOTTOM
        return self._events[x - 1]

    @property
    def events(self) -> Tuple[Action, ...]:
        return self._events

    # -- Operations ----------------------------------------------------------

    def project(self, selector: Selector) -> "ActionSequence":
        """The projection ``t|B``: the subsequence of events from ``B``."""
        pred = _as_predicate(selector)
        return type(self)(a for a in self._events if pred(a))

    def concat(self, other: Iterable[Action]) -> "ActionSequence":
        """Concatenation ``t1 . t2`` (this sequence must be finite; it is)."""
        return type(self)(self._events + tuple(other))

    def is_prefix_of(self, other: "ActionSequence") -> bool:
        """Whether this sequence is a prefix of ``other``."""
        return self._events == other.events[: len(self._events)]

    def is_subsequence_of(self, other: "ActionSequence") -> bool:
        """Whether this sequence is a (not necessarily contiguous)
        subsequence of ``other``, matching event occurrences in order."""
        it = iter(other.events)
        return all(any(mine == theirs for theirs in it) for mine in self._events)

    def count(self, action: Action) -> int:  # type: ignore[override]
        return self._events.count(action)

    def first_index_of(self, pred: Callable[[Action], bool]) -> Optional[int]:
        """0-based index of the first event satisfying ``pred``, or None."""
        for i, a in enumerate(self._events):
            if pred(a):
                return i
        return None

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self._events[:8])
        more = f", ...(+{len(self._events) - 8})" if len(self._events) > 8 else ""
        return f"{type(self).__name__}([{inner}{more}])"


class Schedule(ActionSequence):
    """The schedule of an execution: all its events, internal and external."""


class Trace(ActionSequence):
    """The trace of an execution: its external events only."""


def project(sequence: ActionSequence, selector: Selector) -> ActionSequence:
    """Free-function form of :meth:`ActionSequence.project`."""
    return sequence.project(selector)


class Execution:
    """An execution fragment: alternating states and actions.

    ``states[k]`` is the state before ``actions[k]``; ``states[-1]`` is the
    final state.  A null execution fragment contains a single state and no
    actions.

    :meth:`repro.ioa.scheduler.Scheduler.run` adds three notes about how
    it produced the run:

    * ``lasso`` is ``(mu, period)`` when the scheduler closed the run:
      from step ``mu`` on the run repeats its steps
      ``mu .. mu + period - 1`` forever, so the fragment is a prefix of
      the fair execution prefix . cycle^omega;
    * ``injected`` lists, in order, the steps whose action an injection
      supplied rather than the policy;
    * ``reason`` says why the run ended: ``"max-steps"``,
      ``"quiescent"`` (nothing enabled, nothing queued) or
      ``"stopped"`` (the ``stop_when`` predicate held).

    The notes are not part of the execution's value: equality and
    hashing ignore them, and :meth:`prefix`, :meth:`concat` and
    :meth:`extend` drop them.
    """

    __slots__ = ("_states", "_actions", "_lasso", "_injected", "_reason")

    def __init__(
        self,
        states: Iterable[State],
        actions: Iterable[Action],
        lasso: Optional[Tuple[int, int]] = None,
        injected: Tuple[int, ...] = (),
        reason: Optional[str] = None,
    ):
        self._states: Tuple[State, ...] = tuple(states)
        self._actions: Tuple[Action, ...] = tuple(actions)
        if len(self._states) != len(self._actions) + 1:
            raise ValueError(
                f"an execution with {len(self._actions)} actions needs "
                f"{len(self._actions) + 1} states, got {len(self._states)}"
            )
        self._lasso = lasso
        self._injected = injected
        self._reason = reason

    # -- Accessors -----------------------------------------------------------

    @property
    def states(self) -> Tuple[State, ...]:
        return self._states

    @property
    def actions(self) -> Tuple[Action, ...]:
        return self._actions

    @property
    def lasso(self) -> Optional[Tuple[int, int]]:
        """``(mu, period)`` of a closed run, else ``None``."""
        return self._lasso

    @property
    def injected(self) -> Tuple[int, ...]:
        """The steps whose action an injection supplied."""
        return self._injected

    @property
    def reason(self) -> Optional[str]:
        """Why the scheduler ended the run, else ``None``."""
        return self._reason

    @property
    def first_state(self) -> State:
        return self._states[0]

    @property
    def final_state(self) -> State:
        return self._states[-1]

    def __len__(self) -> int:
        """The number of events in the execution."""
        return len(self._actions)

    def is_null(self) -> bool:
        """Whether this is a null execution fragment (one state, no events)."""
        return not self._actions

    # -- Derived sequences ----------------------------------------------------

    def schedule(self) -> Schedule:
        """The schedule of this execution (all events)."""
        return Schedule(self._actions)

    def trace(self, automaton: Automaton) -> Trace:
        """The trace of this execution: events external to ``automaton``."""
        sig = automaton.signature
        return Trace(a for a in self._actions if sig.is_external(a))

    # -- Operations -----------------------------------------------------------

    def steps(self) -> Iterator[Tuple[State, Action, State]]:
        """Iterate over the (s, a, s') steps of the execution."""
        for k, action in enumerate(self._actions):
            yield self._states[k], action, self._states[k + 1]

    def prefix(self, num_events: int) -> "Execution":
        """The prefix containing the first ``num_events`` events."""
        if num_events < 0 or num_events > len(self._actions):
            raise ValueError(f"prefix length {num_events} out of range")
        return Execution(
            self._states[: num_events + 1], self._actions[:num_events]
        )

    def concat(self, other: "Execution") -> "Execution":
        """Concatenation ``alpha1 . alpha2`` (Section 2.2).

        Requires that ``other`` starts in this execution's final state.
        """
        if self.final_state != other.first_state:
            raise ValueError(
                "cannot concatenate: second fragment does not start in the "
                "first fragment's final state"
            )
        return Execution(
            self._states + other.states[1:], self._actions + other.actions
        )

    def extend(self, action: Action, new_state: State) -> "Execution":
        """The execution obtained by appending one step."""
        return Execution(
            self._states + (new_state,), self._actions + (action,)
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Execution):
            return (
                self._states == other._states
                and self._actions == other._actions
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._states, self._actions))

    def __repr__(self) -> str:
        return f"Execution(<{len(self._actions)} events>)"

    # -- Validation ----------------------------------------------------------

    def is_execution_of(self, automaton: Automaton) -> bool:
        """Check this fragment against ``automaton``'s transition relation."""
        for state, action, next_state in self.steps():
            if not automaton.enabled(state, action):
                return False
            if automaton.apply(state, action) != next_state:
                return False
        return True


def apply_schedule(
    automaton: Automaton,
    schedule: Iterable[Action],
    start: Optional[State] = None,
) -> Execution:
    """The result of applying ``schedule`` to ``automaton`` in ``start``.

    Raises ``ValueError`` if the schedule is not applicable (some event is
    not enabled in the state where it is applied), mirroring the paper's
    definition of applicability (Section 2.2).
    """
    state = automaton.initial_state() if start is None else start
    states: List[State] = [state]
    actions: List[Action] = []
    for action in schedule:
        if not automaton.enabled(state, action):
            raise ValueError(
                f"schedule not applicable: {action} not enabled after "
                f"{len(actions)} events"
            )
        state = automaton.apply(state, action)
        states.append(state)
        actions.append(action)
    return Execution(states, actions)

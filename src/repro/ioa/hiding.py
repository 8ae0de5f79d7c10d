"""Hiding: reclassifying output actions as internal (Section 2.3).

A hidden action no longer appears in the traces of the automaton, but it
still occurs in schedules and still synchronizes nothing (it is no longer
external, so composition with other automata cannot match it).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import ActionSet, PredicateActionSet, Signature


class _Difference(ActionSet):
    """Set difference of two action sets."""

    # Keys undeclared: no program code hides actions, so no index needs them.

    def __init__(self, base: ActionSet, removed: ActionSet):
        self._base = base
        self._removed = removed

    def __contains__(self, action: Action) -> bool:
        return action in self._base and action not in self._removed

    def __repr__(self) -> str:
        return f"Difference({self._base!r} - {self._removed!r})"


class _Intersection(ActionSet):
    """Intersection of two action sets."""

    # Keys undeclared: no program code hides actions, so no index needs them.

    def __init__(self, left: ActionSet, right: ActionSet):
        self._left = left
        self._right = right

    def __contains__(self, action: Action) -> bool:
        return action in self._left and action in self._right

    def __repr__(self) -> str:
        return f"Intersection({self._left!r} & {self._right!r})"


class Hidden(Automaton):
    """``automaton`` with the outputs in ``hidden`` reclassified as internal."""

    def __init__(self, automaton: Automaton, hidden: ActionSet):
        super().__init__(f"hide({automaton.name})")
        self.base = automaton
        self._hidden = hidden
        base_sig = automaton.signature
        newly_internal: ActionSet = _Intersection(base_sig.outputs, hidden)
        if base_sig.outputs.is_finite():
            # Materialize so composition's compatibility checks can see
            # the hidden actions (hiding then composing with an automaton
            # that still inputs the hidden action must be rejected).
            from repro.ioa.signature import FiniteActionSet

            newly_internal = FiniteActionSet(
                a for a in base_sig.outputs.enumerate() if a in hidden
            )
        self._signature = Signature(
            inputs=base_sig.inputs,
            outputs=_Difference(base_sig.outputs, hidden),
            internals=base_sig.internals.union(newly_internal),
        )

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return self.base.initial_state()

    def apply(self, state: State, action: Action) -> State:
        return self.base.apply(state, action)

    def enabled(self, state: State, action: Action) -> bool:
        return self.base.enabled(state, action)

    def enabled_locally(self, state: State) -> Iterable[Action]:
        return self.base.enabled_locally(state)

    def tasks(self) -> Sequence[str]:
        return self.base.tasks()

    def task_of(self, action: Action) -> Optional[str]:
        return self.base.task_of(action)

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        return self.base.enabled_in_task(state, task)


def hide(automaton: Automaton, hidden) -> Hidden:
    """Hide ``hidden`` (an ActionSet, iterable of actions, or predicate)."""
    # Keys undeclared: the set only filters the base's outputs, and the
    # difference and intersection built from it declare none.
    if isinstance(hidden, ActionSet):
        action_set = hidden
    elif callable(hidden):
        action_set = PredicateActionSet(hidden, "hidden-by-predicate")
    else:
        members = frozenset(hidden)
        action_set = PredicateActionSet(
            lambda a: a in members, f"hidden {len(members)} actions"
        )
    return Hidden(automaton, action_set)

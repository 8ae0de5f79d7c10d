"""Signatures: classification of actions as input, output or internal.

The action universe of a distributed system is infinite (there is a ``send``
action for every message in the alphabet M), so action sets are represented
by membership predicates rather than enumerations.  Finite sets additionally
support iteration, which several checkers exploit.

Every action is named and located (``send(m, j)_i`` at i, ``crash_i``,
detector outputs at i), so a set can also say which ``(name, location)``
pairs its members carry: :meth:`ActionSet.keys` returns a superset of
them, or ``None`` when they are unknown.  The contract is one-sided:
``a in s`` implies ``(a.name, a.location) in s.keys()``, while a key may
belong to no member (``send(*, j)_i`` declares ``("send", i)`` although
only sends addressed to j are members).  Empty, finite and union sets
derive their keys; a :class:`PredicateActionSet` takes them as a
declaration.  :class:`~repro.ioa.composition.Composition` indexes its
components by these keys, so a declaration that misses a member's key
makes that member invisible to dispatch; ``None`` is always sound and
costs a probe on every first sighting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.ioa.actions import Action

#: The ``(name, location)`` pair of an action: what a composition indexes on.
Key = Tuple[str, Optional[int]]


class ActionSet(ABC):
    """An (extensionally possibly infinite) set of actions."""

    @abstractmethod
    def __contains__(self, action: Action) -> bool:
        """Membership test."""

    def is_finite(self) -> bool:
        """Whether this set supports enumeration via :meth:`enumerate`."""
        return False

    def enumerate(self) -> Iterator[Action]:
        """Iterate over members; only available when :meth:`is_finite`."""
        raise TypeError(f"{type(self).__name__} is not enumerable")

    def keys(self) -> Optional[FrozenSet[Key]]:
        """A superset of the members' ``(name, location)`` pairs, or
        ``None`` when they are unknown (see the module docstring)."""
        return None

    def union(self, other: "ActionSet") -> "ActionSet":
        """The union of this set with another."""
        return UnionActionSet((self, other))

    def __or__(self, other: "ActionSet") -> "ActionSet":
        return self.union(other)


class EmptyActionSet(ActionSet):
    """The empty set of actions."""

    def __contains__(self, action: Action) -> bool:
        return False

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterator[Action]:
        return iter(())

    def keys(self) -> FrozenSet[Key]:
        return frozenset()

    def __repr__(self) -> str:
        return "EmptyActionSet()"


class FiniteActionSet(ActionSet):
    """An explicitly enumerated, finite set of actions."""

    def __init__(self, actions: Iterable[Action]):
        self._actions: FrozenSet[Action] = frozenset(actions)

    def __contains__(self, action: Action) -> bool:
        return action in self._actions

    def is_finite(self) -> bool:
        return True

    def enumerate(self) -> Iterator[Action]:
        return iter(sorted(self._actions))

    def keys(self) -> FrozenSet[Key]:
        return frozenset((a.name, a.location) for a in self._actions)

    def __len__(self) -> int:
        return len(self._actions)

    def __repr__(self) -> str:
        return f"FiniteActionSet({sorted(self._actions)!r})"


class PredicateActionSet(ActionSet):
    """An action set defined by a membership predicate.

    Used for infinite families such as ``{send(m, j)_i | m in M}``.

    Parameters
    ----------
    predicate:
        Membership test.
    description:
        Human-readable description for error messages and ``repr``.
    keys:
        A superset of the ``(name, location)`` pairs of the actions the
        predicate accepts, declared when the predicate fixes both (the
        family above declares ``{("send", i)}``).  Left ``None``, a
        composition probes the component holding the set for every
        action it dispatches.
    """

    def __init__(
        self,
        predicate: Callable[[Action], bool],
        description: str = "",
        keys: Optional[Iterable[Key]] = None,
    ):
        self._predicate = predicate
        self._description = description
        self._keys: Optional[FrozenSet[Key]] = (
            None if keys is None else frozenset(keys)
        )

    def __contains__(self, action: Action) -> bool:
        return self._predicate(action)

    def keys(self) -> Optional[FrozenSet[Key]]:
        return self._keys

    def __repr__(self) -> str:
        return f"PredicateActionSet({self._description!r})"


class UnionActionSet(ActionSet):
    """The union of several action sets."""

    def __init__(self, parts: Iterable[ActionSet]):
        self._parts = tuple(parts)

    def __contains__(self, action: Action) -> bool:
        return any(action in part for part in self._parts)

    def is_finite(self) -> bool:
        return all(part.is_finite() for part in self._parts)

    def enumerate(self) -> Iterator[Action]:
        seen = set()
        for part in self._parts:
            for action in part.enumerate():
                if action not in seen:
                    seen.add(action)
                    yield action

    def keys(self) -> Optional[FrozenSet[Key]]:
        return union_keys(part.keys() for part in self._parts)

    @property
    def parts(self) -> tuple:
        return self._parts

    def __repr__(self) -> str:
        return f"UnionActionSet({list(self._parts)!r})"


def union_keys(
    key_sets: Iterable[Optional[FrozenSet[Key]]],
) -> Optional[FrozenSet[Key]]:
    """The union of several sets' keys; ``None`` if any of them is."""
    keys: set = set()
    for part in key_sets:
        if part is None:
            return None
        keys |= part
    return frozenset(keys)


class Signature:
    """The signature of an I/O automaton (Section 2.1).

    Partitions the automaton's actions into input, output and internal sets.
    Input and output actions are *external*; output and internal actions are
    *locally controlled*.
    """

    def __init__(
        self,
        inputs: Optional[ActionSet] = None,
        outputs: Optional[ActionSet] = None,
        internals: Optional[ActionSet] = None,
    ):
        self.inputs: ActionSet = inputs if inputs is not None else EmptyActionSet()
        self.outputs: ActionSet = outputs if outputs is not None else EmptyActionSet()
        self.internals: ActionSet = (
            internals if internals is not None else EmptyActionSet()
        )

    def is_input(self, action: Action) -> bool:
        return action in self.inputs

    def is_output(self, action: Action) -> bool:
        return action in self.outputs

    def is_internal(self, action: Action) -> bool:
        return action in self.internals

    def is_external(self, action: Action) -> bool:
        return self.is_input(action) or self.is_output(action)

    def is_locally_controlled(self, action: Action) -> bool:
        return self.is_output(action) or self.is_internal(action)

    def __contains__(self, action: Action) -> bool:
        return (
            self.is_input(action)
            or self.is_output(action)
            or self.is_internal(action)
        )

    def classify(self, action: Action) -> Optional[str]:
        """Return ``"input"``, ``"output"``, ``"internal"``, or ``None``."""
        if self.is_input(action):
            return "input"
        if self.is_output(action):
            return "output"
        if self.is_internal(action):
            return "internal"
        return None

    def __repr__(self) -> str:
        return (
            f"Signature(inputs={self.inputs!r}, outputs={self.outputs!r}, "
            f"internals={self.internals!r})"
        )

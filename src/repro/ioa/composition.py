"""Composition of I/O automata (Section 2.3).

A collection of automata is composed by matching output actions of some
automata with same-named input actions of others; all the actions with the
same name are performed together.  The composition's state is the tuple of
component states; a step on action ``a`` advances exactly the components
that have ``a`` in their signature.

Compatibility requirements (Lynch [21, Chapter 8]):

* each action is an output of at most one component;
* internal actions of a component are not actions of any other component.

Because signatures here are predicate-based (and hence possibly infinite),
the constructor checks compatibility on enumerable parts of the signatures
and the remaining checks happen lazily: the first step performed on each
distinct action verifies that it has at most one output owner.

Hot-path design (the simulation engine's inner loop)
----------------------------------------------------
A naive composition step costs O(components) signature-membership tests
per dispatch question (``owner_of``, ``participants``, ``task_of``) and a
full ``enabled_locally`` re-enumeration per task per scheduler step.
Both are pure functions — dispatch of the action alone, enabledness of
the component's state piece alone — so the composition memoizes them:

* **dispatch maps**: per action, the owning component index and the
  participant index tuple are computed once by the predicate scan and
  remembered (the scan stays the fallback for the first sighting of each
  action, so infinite predicate signatures keep working);
* **per-component enabled cache**: per ``(component, component state)``,
  the component's enabled actions grouped by namespaced task.  Keying on
  the state piece *is* the invalidation rule: a fired action replaces the
  state pieces of exactly its participants, so every non-participant hits
  the cache with its unchanged piece — their enabled sets provably cannot
  have changed;
* **per-step snapshots**: :meth:`Composition.enabled_by_task` assembles
  the full task→enabled-actions map from the cached groups, so scheduler
  policies and the tagged-tree builder ask once per step instead of once
  per task;
* **incremental snapshots**: the composition keeps the last snapshot it
  built with its per-component group list.  Asked for the state
  :meth:`Composition.apply` produced from it, it re-probes only the fired
  action's participants and re-merges the group list in component order
  (or carries the snapshot over when no participant's group changed, key
  order included).  This is sound because states are immutable and a
  step replaces the pieces of exactly its participants: every other
  piece is the same object, so its group cannot have changed.  Any other
  state gets the full merge.  Returning the same snapshot for the same
  state object is not done here but in the step loop
  (:meth:`repro.ioa.scheduler.Scheduler.run`), for every automaton;
  ``apply`` always builds a new tuple, so there it serves only a
  policy that asks twice within one step.

Correctness rests on the module contract that states are immutable and
``enabled_locally`` is a pure function of the state
(:mod:`repro.ioa.automaton`); ``tests/properties`` cross-checks the cache
against brute-force re-enumeration on randomized compositions.  Caching
has one toggle, the process-wide :func:`set_enabled_cache_default`; a
composition built while it is off takes the original predicate scan,
which CI uses as the semantics oracle.

Every memo probe tallies into the process-global cache telemetry
(``composition.dispatch`` / ``composition.task`` / ``composition.enabled``
/ ``composition.snapshot`` in :mod:`repro.obs.prof`): deterministic
hit/miss/evict counts the profiler and the benchmark ``--profile`` flag
report as hit rates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.signature import (
    ActionSet,
    Signature,
    UnionActionSet,
)
from repro.obs.prof import cache_counter


class CompositionError(Exception):
    """Raised when automata cannot be composed, or a step is ambiguous."""


_cache_default = True


def enabled_cache_default() -> bool:
    """The process-wide default for composition enabled/dispatch caching."""
    return _cache_default


def set_enabled_cache_default(enabled: bool) -> bool:
    """Set the process-wide caching default; returns the previous value.

    Affects compositions constructed afterwards (existing instances keep
    the mode they were built with).  The benchmark perf guard flips this
    to compare cached against brute-force series.
    """
    global _cache_default
    previous = _cache_default
    _cache_default = bool(enabled)
    return previous


class _CompositionInputs(ActionSet):
    """Inputs of a composition: inputs of some component, output of none."""

    def __init__(self, components: Sequence[Automaton]):
        self._components = components

    def __contains__(self, action: Action) -> bool:
        if any(action in c.signature.outputs for c in self._components):
            return False
        return any(action in c.signature.inputs for c in self._components)

    def __repr__(self) -> str:
        return f"CompositionInputs({[c.name for c in self._components]})"


class Composition(Automaton):
    """The composition of a collection of compatible I/O automata.

    Task names are namespaced as ``"<component name>:<task name>"`` so the
    scheduler can treat the composition's tasks uniformly.
    """

    TASK_SEPARATOR = ":"

    #: Clear the per-component enabled cache when it grows past this many
    #: distinct (component, state-piece) keys; bounds memory on runs whose
    #: reachable state space is enormous while keeping the common case
    #: (heavily repeated pieces) fully cached.
    ENABLED_CACHE_CAP = 1 << 16

    def __init__(
        self,
        components: Iterable[Automaton],
        name: str = "",
    ):
        components = tuple(components)
        if not components:
            raise CompositionError("cannot compose zero automata")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise CompositionError(f"component names must be unique: {names}")
        super().__init__(name or "||".join(names))
        self.components: Tuple[Automaton, ...] = components
        self._index: Dict[str, int] = {c.name: k for k, c in enumerate(components)}
        self._check_enumerable_compatibility()
        self._signature = Signature(
            inputs=_CompositionInputs(components),
            outputs=UnionActionSet(c.signature.outputs for c in components),
            internals=UnionActionSet(c.signature.internals for c in components),
        )
        self._tasks: Tuple[str, ...] = tuple(
            self._qualify(c, task) for c in components for task in c.tasks()
        )
        # Hot-path memos (see the module docstring).  All three are pure
        # caches: dispatch of an action and enabledness of a state piece
        # never change, so no invalidation is needed.
        self._use_cache: bool = _cache_default
        #: action -> (owner index or None, participant index tuple)
        self._dispatch_memo: Dict[Action, Tuple[Optional[int], Tuple[int, ...]]] = {}
        #: action -> namespaced task name or None
        self._task_memo: Dict[Action, Optional[str]] = {}
        #: (component index, component state piece) ->
        #: {namespaced task: enabled actions tuple}
        self._enabled_memo: Dict[
            Tuple[int, State], Dict[str, Tuple[Action, ...]]
        ] = {}
        #: The last snapshot enabled_by_task built: its state, the merged
        #: map and the per-component group list it merged.
        self._snap_state: Optional[State] = None
        self._snap: Dict[str, Tuple[Action, ...]] = {}
        self._snap_groups: List[Dict[str, Tuple[Action, ...]]] = []
        #: The state apply() last produced from the snapshotted state, and
        #: the participants whose pieces that step replaced.
        self._child_state: Optional[State] = None
        self._child_participants: Tuple[int, ...] = ()
        # Cache telemetry: process-global hit/miss/evict tallies shared by
        # every composition (repro.obs.prof).  Plain integer adds on the
        # memo probes; deterministic for a fixed run, and the substrate of
        # the profiler's cache block.
        self._c_dispatch = cache_counter("composition.dispatch")
        self._c_task = cache_counter("composition.task")
        self._c_enabled = cache_counter("composition.enabled")
        self._c_snapshot = cache_counter("composition.snapshot")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _qualify(self, component: Automaton, task: str) -> str:
        return f"{component.name}{self.TASK_SEPARATOR}{task}"

    def split_task(self, task: str) -> Tuple[Automaton, str]:
        """Resolve a namespaced task name into (component, local task)."""
        comp_name, sep, local = task.partition(self.TASK_SEPARATOR)
        if not sep or comp_name not in self._index:
            raise KeyError(f"unknown composition task {task!r}")
        return self.components[self._index[comp_name]], local

    def _check_enumerable_compatibility(self) -> None:
        """Best-effort static compatibility checks on finite signatures."""
        for k, c in enumerate(self.components):
            outs = c.signature.outputs
            if not outs.is_finite():
                continue
            for action in outs.enumerate():
                owners = [
                    d.name
                    for d in self.components
                    if action in d.signature.outputs
                ]
                if len(owners) > 1:
                    raise CompositionError(
                        f"action {action} is an output of several "
                        f"components: {owners}"
                    )
        for c in self.components:
            ints = c.signature.internals
            if not ints.is_finite():
                continue
            for action in ints.enumerate():
                for d in self.components:
                    if d is not c and action in d.signature:
                        raise CompositionError(
                            f"internal action {action} of {c.name} is also "
                            f"an action of {d.name}"
                        )

    # ------------------------------------------------------------------
    # Automaton interface
    # ------------------------------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_state(self) -> State:
        return tuple(c.initial_state() for c in self.components)

    def component_state(self, state: State, component: Automaton) -> State:
        """The given component's piece of a composition state."""
        return state[self._index[component.name]]

    def component_index(self, component: Automaton) -> int:
        """The component's fixed position in composition states (hot
        readers index the state tuple directly with it)."""
        return self._index[component.name]

    def _dispatch(self, action: Action) -> Tuple[Optional[int], Tuple[int, ...]]:
        """``(owner index or None, participant indices)`` for ``action``.

        The first sighting of each action runs the predicate scan (and
        performs the lazy one-output-owner compatibility check, raising
        :class:`CompositionError` on ambiguity); subsequent sightings are
        one dictionary lookup.  Only successful dispatches are memoized,
        so an ambiguous action raises on every use.
        """
        entry = self._dispatch_memo.get(action)
        if entry is not None:
            self._c_dispatch.hits += 1
            return entry
        self._c_dispatch.misses += 1
        # One classifying pass: an output or internal action makes the
        # component an owner and a participant, an input a participant.
        owners: List[int] = []
        participants: List[int] = []
        for k, c in enumerate(self.components):
            signature = c.signature
            if action in signature.outputs or action in signature.internals:
                owners.append(k)
                participants.append(k)
            elif action in signature.inputs:
                participants.append(k)
        if len(owners) > 1:
            raise CompositionError(
                f"action {action} is locally controlled by several "
                f"components: {[self.components[k].name for k in owners]}"
            )
        entry = (owners[0] if owners else None, tuple(participants))
        if self._use_cache:
            self._dispatch_memo[action] = entry
        return entry

    def participants(self, action: Action) -> List[int]:
        """Indices of components that have ``action`` in their signature."""
        return list(self._dispatch(action)[1])

    def owner_of(self, action: Action) -> Optional[Automaton]:
        """The unique component having ``action`` as a locally controlled
        action, or ``None`` for pure input actions."""
        owner = self._dispatch(action)[0]
        return None if owner is None else self.components[owner]

    def apply(self, state: State, action: Action) -> State:
        # _dispatch raises on ambiguity (the lazy compatibility check).
        _owner, participants = self._dispatch(action)
        pieces = list(state)
        for k in participants:
            pieces[k] = self.components[k].apply(state[k], action)
        next_state = tuple(pieces)
        if state is self._snap_state:
            # Lets the next enabled_by_task(next_state) patch the snapshot.
            self._child_state = next_state
            self._child_participants = participants
        return next_state

    def enabled(self, state: State, action: Action) -> bool:
        if self.signature.is_input(action):
            return True
        owner = self._dispatch(action)[0]
        if owner is None:
            return False
        return self.components[owner].enabled(state[owner], action)

    def enabled_locally(self, state: State) -> Iterable[Action]:
        for c, s in zip(self.components, state):
            for action in c.enabled_locally(s):
                yield action

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------

    def tasks(self) -> Sequence[str]:
        return self._tasks

    def task_of(self, action: Action) -> Optional[str]:
        if action in self._task_memo:
            self._c_task.hits += 1
            return self._task_memo[action]
        self._c_task.misses += 1
        owner = self.owner_of(action)
        if owner is None:
            qualified = None
        else:
            local = owner.task_of(action)
            qualified = None if local is None else self._qualify(owner, local)
        if self._use_cache:
            self._task_memo[action] = qualified
        return qualified

    def _component_enabled(
        self, index: int, piece: State
    ) -> Dict[str, Tuple[Action, ...]]:
        """Component ``index``'s enabled actions in its state ``piece``,
        grouped by namespaced task — memoized on ``(index, piece)``.

        A step replaces the pieces of exactly the fired action's
        participants, so every other component re-presents its old piece
        and hits the cache: this key *is* the "invalidate only the
        participants" rule.
        """
        key = (index, piece)
        grouped = self._enabled_memo.get(key)
        if grouped is not None:
            self._c_enabled.hits += 1
            return grouped
        self._c_enabled.misses += 1
        component = self.components[index]
        prefix = component.name + self.TASK_SEPARATOR
        grouped = {
            prefix + local: actions
            for local, actions in component.enabled_by_task(piece).items()
        }
        if self._use_cache:
            if len(self._enabled_memo) >= self.ENABLED_CACHE_CAP:
                self._c_enabled.evictions += len(self._enabled_memo)
                self._enabled_memo.clear()
            self._enabled_memo[key] = grouped
        return grouped

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        component, _local = self.split_task(task)
        index = self._index[component.name]
        return self._component_enabled(index, state[index]).get(task, ())

    def enabled_by_task(self, state: State) -> Dict[str, Tuple[Action, ...]]:
        """One snapshot of every enabled task — the per-step query the
        scheduler policies and the tagged-tree builder consume (see the
        module docstring).

        The returned dict is shared with later calls (a carried-over
        snapshot is the previous dict) and must be treated as read-only.
        Asking again about the same state object is the step loop's job
        (:meth:`repro.ioa.scheduler.Scheduler.run` keeps the last
        snapshot); here it is a full merge.
        """
        if state is self._child_state:
            self._c_snapshot.hits += 1
            groups = self._snap_groups
            patched = False
            for index in self._child_participants:
                group = self._component_enabled(index, state[index])
                old = groups[index]
                if group is old or (group == old and list(group) == list(old)):
                    continue
                if not patched:
                    groups = list(groups)
                    patched = True
                groups[index] = group
            if not patched:
                # No participant's group changed (key order included), so
                # neither did the merge: the snapshot carries over.
                self._snap_state = state
                self._child_state = None
                return self._snap
        else:
            self._c_snapshot.misses += 1
            groups = [
                self._component_enabled(index, piece)
                for index, piece in enumerate(state)
            ]
        snapshot: Dict[str, Tuple[Action, ...]] = {}
        for group in groups:
            snapshot.update(group)
        if self._use_cache:
            self._snap_state = state
            self._snap = snapshot
            self._snap_groups = groups
            self._child_state = None
        return snapshot

    # ------------------------------------------------------------------
    # Projection (Theorem 8.1 in Lynch [21])
    # ------------------------------------------------------------------

    def project_execution(self, execution, component: Automaton):
        """The projection ``alpha | A_i`` of an execution on one component.

        Deletes each (action, state) pair whose action is not an action of
        the component, and replaces each remaining state by the component's
        piece of it (Section 2.3).
        """
        from repro.ioa.executions import Execution

        idx = self._index[component.name]
        states = [execution.states[0][idx]]
        actions = []
        for k, action in enumerate(execution.actions):
            if action in component.signature:
                actions.append(action)
                states.append(execution.states[k + 1][idx])
        return Execution(states, actions)


def compose(*components: Automaton, name: str = "") -> Composition:
    """Convenience constructor: ``compose(a, b, c)``."""
    return Composition(components, name=name)

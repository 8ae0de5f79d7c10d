"""The composition-time compiler: automata lowered to flat dispatch tables.

:class:`CompiledAutomaton` lowers *any* automaton satisfying the module
contract (immutable hashable states, pure ``apply``) into id-indexed
tables; :class:`CompiledComposition` specializes the lowering for
:class:`~repro.ioa.composition.Composition`, interning state *pieces*
per component so a step re-hashes only the pieces the fired action
actually replaced — the same invalidation insight as PR 3's
per-component enabled cache, now paying integer-tuple hashes instead of
nested-state hashes.

The tables, all dense lists indexed by action id / state id:

================  ==========================================================
action id         ``-> Action`` (canonical first-seen object) and
                  participant index tuple — the flattened form of
                  ``Composition._dispatch``
state/config id   ``-> state`` (materialized canonical value) and the
                  *enabled snapshot*: per task index, the enabled action
                  ids sorted in Action order (so ``aids[0]`` is the
                  round-robin policy's ``min(enabled)`` and the tuple is
                  the random policy's ``sorted(enabled)``)
(state, action)   ``-> state id`` — the memoized transition relation
                  (the apply thunk over interned ids)
================  ==========================================================

First sightings fall back to the interpreted implementations
(``signature`` predicate scans via ``Composition._dispatch``, component
``enabled_by_task``, component ``apply``), so infinite predicate-based
signatures keep working and the interpreted semantics remain the single
source of truth; everything after the first sighting is list indexing
and int-keyed dict probes.

``CompiledAutomaton`` *is* an :class:`~repro.ioa.automaton.Automaton`,
and :meth:`~repro.ioa.scheduler.Scheduler.run` drives it like any
other: ``initial_state``/``apply``/``enabled_by_task`` route through the
tables (the lint contract layer's compiled subjects exercise the same
methods — REPROC02/REPROC04 against the compiled apply thunks), while
``enabled``/``enabled_locally``/``task_of`` delegate to the base
automaton, whose enumeration order is part of the observable contract.
The policy twins of :mod:`repro.compiled.loop` read the snapshot tables
directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.composition import Composition
from repro.ioa.signature import Signature
from repro.compiled.intern import Interner
from repro.obs.prof import cache_counter

#: Matches no state or action: the identity slots start empty.
_NOTHING = object()


class CompiledAutomaton(Automaton):
    """A generic automaton lowered to interned-id tables.

    Suitable for single automata (the detector-trace workload, the lint
    contract subjects); compositions get the piece-level specialization
    below.  The lowering is lazy: tables grow as states and actions are
    first sighted, because predicate-based signatures make the action
    universe non-enumerable up front.

    As an automaton, the core hands out canonical states (one object per
    config id) and remembers the last one it returned or was asked
    about (``_state``/``_cid``), so the step loop's next ``apply``
    resolves its config id with one ``is`` test; likewise the action a
    policy twin last chose, which the twin stores in ``_action``/``_aid``.
    Any other state is interned, and any other action goes through an
    identity-keyed memo before interning, so equal-by-value states and
    actions (a ``start=`` state, deep copies, fresh injection objects)
    work unchanged.
    """

    def __init__(self, automaton: Automaton):
        super().__init__(f"compiled({automaton.name})")
        self.base = automaton
        self.task_names: Tuple[str, ...] = tuple(automaton.tasks())
        self._task_index: Dict[str, int] = {
            task: index for index, task in enumerate(self.task_names)
        }
        self._actions = Interner("action")
        #: action id -> canonical action; config id -> canonical state
        self._action_list: List[Action] = []
        self._config_states: List[State] = []
        #: state id -> per-task-index enabled action ids (None when the
        #: task has nothing enabled), plus the dense non-empty projection
        #: in task order (what the random policy twin draws from).
        self._snap_full: List[Tuple[Optional[Tuple[int, ...]], ...]] = []
        self._snap_dense: List[Tuple[Tuple[int, ...], ...]] = []
        self._apply_memo: Dict[Tuple[int, int], int] = {}
        self._c_apply = cache_counter("compiled.apply")
        self._states = Interner("state")
        #: config id -> the base automaton's own snapshot, built on demand
        self._base_snaps: Dict[int, Dict[str, Tuple[Action, ...]]] = {}
        #: id(action) -> (action, action id) for actions not handed out
        self._aid_memo: Dict[int, Tuple[Action, int]] = {}
        self._clear_slots()

    def _clear_slots(self) -> None:
        self._state: State = _NOTHING
        self._cid = -1
        self._action: Action = _NOTHING
        self._aid = -1

    # -- Interning ----------------------------------------------------------

    def intern_config(self, state: State) -> int:
        """The id of a full automaton state, building its enabled
        snapshot on first sighting, before the id is assigned."""
        if state not in self._states:
            self._build_snapshot(state)
            self._config_states.append(state)
        return self._states.intern(state)

    def intern_action(self, action: Action) -> int:
        """The id of an action, running the interpreted dispatch scan on
        first sighting, before the id is assigned: a dispatch error
        leaves no trace in the tables, so it surfaces on every sighting
        exactly as it does on the interpreted path."""
        if action not in self._actions:
            self._register_action(action)
            self._action_list.append(action)
        return self._actions.intern(action)

    def _build_snapshot(self, state: State) -> None:
        full: List[Optional[Tuple[int, ...]]] = [None] * len(self.task_names)
        for task, actions in self.base.enabled_by_task(state).items():
            full[self._task_index[task]] = tuple(
                self.intern_action(a) for a in sorted(actions)
            )
        self._snap_full.append(tuple(full))
        self._snap_dense.append(tuple(a for a in full if a))

    def _register_action(self, action: Action) -> None:
        """Per-action tables beyond the canonical object (none here)."""

    def config_id(self, state: State) -> int:
        """The config id of ``state``: one ``is`` test against the state
        last returned or asked about, else interned and remembered."""
        if state is self._state:
            return self._cid
        cid = self.intern_config(state)
        self._state = state
        self._cid = cid
        return cid

    def _action_id(self, action: Action) -> int:
        entry = self._aid_memo.get(id(action))
        if entry is not None and entry[0] is action:
            return entry[1]
        aid = self.intern_action(action)
        # The entry pins the action, so its id() stays unique.
        self._aid_memo[id(action)] = (action, aid)
        return aid

    # -- Transitions --------------------------------------------------------

    def _transition(self, cid: int, aid: int) -> int:
        return self.intern_config(
            self.base.apply(self._config_states[cid], self._action_list[aid])
        )

    # -- Housekeeping -------------------------------------------------------

    @property
    def num_configs(self) -> int:
        return len(self._snap_full)

    def table_sizes(self) -> Dict[str, int]:
        """Current table cardinalities (for the compiled system's metadata)."""
        return {
            "actions": len(self._actions),
            "configs": self.num_configs,
            "transitions": len(self._apply_memo),
        }

    def reset_tables(self) -> None:
        """Drop every table (safe only between runs; ids are reborn).

        :meth:`repro.compiled.system.CompiledSystem.maybe_reset` calls
        this when the config table outgrows
        :data:`repro.compiled.system.TABLE_CAP`, bounding memory on
        workloads whose state stream never repeats (chaos channels age
        a counter every tick)."""
        self._actions.clear()
        self._action_list.clear()
        self._config_states.clear()
        self._snap_full.clear()
        self._snap_dense.clear()
        self._apply_memo.clear()
        self._states.clear()
        self._base_snaps.clear()
        self._aid_memo.clear()
        self._clear_slots()

    # -- Automaton interface (the step loop's and the lint layer's view) ----

    @property
    def signature(self) -> Signature:
        return self.base.signature

    def initial_state(self) -> State:
        cid = self.intern_config(self.base.initial_state())
        self._state = self._config_states[cid]
        self._cid = cid
        return self._state

    def apply(self, state: State, action: Action) -> State:
        """The transition relation over the memoized id table."""
        cid = self._cid if state is self._state else self.config_id(state)
        aid = self._aid if action is self._action else self._action_id(action)
        key = (cid, aid)
        nid = self._apply_memo.get(key)
        if nid is None:
            self._c_apply.misses += 1
            nid = self._transition(cid, aid)
            self._apply_memo[key] = nid
        else:
            self._c_apply.hits += 1
        state = self._config_states[nid]
        self._state = state
        self._cid = nid
        return state

    def enabled_by_task(self, state: State) -> Dict[str, Tuple[Action, ...]]:
        """The base automaton's snapshot of ``state``'s config, built once
        per config on first request (shared and read-only, like every
        snapshot)."""
        cid = self._cid if state is self._state else self.config_id(state)
        snapshot = self._base_snaps.get(cid)
        if snapshot is None:
            snapshot = self.base.enabled_by_task(self._config_states[cid])
            self._base_snaps[cid] = snapshot
        return snapshot

    def enabled_in_task(self, state: State, task: str) -> Tuple[Action, ...]:
        return self.enabled_by_task(state).get(task, ())

    def enabled_locally(self, state: State) -> Iterable[Action]:
        return self.base.enabled_locally(state)

    def enabled(self, state: State, action: Action) -> bool:
        return self.base.enabled(state, action)

    def tasks(self) -> Sequence[str]:
        return self.task_names

    def task_of(self, action: Action) -> Optional[str]:
        return self.base.task_of(action)


class CompiledComposition(CompiledAutomaton):
    """The piece-level lowering of a :class:`Composition`.

    A configuration is interned as the tuple of its per-component piece
    ids, so the hot path hashes small integer tuples instead of nested
    state values; a transition re-interns only the fired action's
    participant pieces.  Enabled groups are computed once per distinct
    piece (one ``enabled_by_task`` call on the owning component) and
    stitched into per-config snapshots at config interning.
    """

    def __init__(self, composition: Composition):
        if not isinstance(composition, Composition):
            raise TypeError(
                "CompiledComposition lowers Composition instances; use "
                f"CompiledAutomaton for {type(composition).__name__}"
            )
        super().__init__(composition)
        ncomp = len(composition.components)
        #: per component: piece -> piece id, and the id-indexed pieces
        self._piece_ids: List[Dict[State, int]] = [{} for _ in range(ncomp)]
        self._pieces: List[List[State]] = [[] for _ in range(ncomp)]
        #: per component, per piece id: ((task index, enabled aids), ...)
        self._piece_groups: List[List[Tuple[Tuple[int, Tuple[int, ...]], ...]]] = [
            [] for _ in range(ncomp)
        ]
        #: config = tuple of piece ids -> config id
        self._config_ids: Dict[Tuple[int, ...], int] = {}
        self._config_pids: List[Tuple[int, ...]] = []
        #: action id -> participant component indices
        self._action_parts: List[Tuple[int, ...]] = []
        self._c_piece = cache_counter("compiled.piece")
        self._c_config = cache_counter("compiled.config")

    # -- Interning ----------------------------------------------------------

    def intern_config(self, state: State) -> int:
        pids = tuple(
            self._intern_piece(index, piece)
            for index, piece in enumerate(state)
        )
        return self._intern_pids(pids)

    def _intern_piece(self, index: int, piece: State) -> int:
        ids = self._piece_ids[index]
        pid = ids.get(piece)
        if pid is not None:
            self._c_piece.hits += 1
            return pid
        self._c_piece.misses += 1
        # The groups intern actions, which may raise: build them before
        # the piece gets an id.
        component = self.base.components[index]
        prefix = component.name + self.base.TASK_SEPARATOR
        groups = tuple(
            (
                self._task_index[prefix + local],
                tuple(self.intern_action(a) for a in sorted(actions)),
            )
            for local, actions in component.enabled_by_task(piece).items()
        )
        pid = len(self._pieces[index])
        ids[piece] = pid
        self._pieces[index].append(piece)
        self._piece_groups[index].append(groups)
        return pid

    def _intern_pids(self, pids: Tuple[int, ...]) -> int:
        cid = self._config_ids.get(pids)
        if cid is not None:
            self._c_config.hits += 1
            return cid
        self._c_config.misses += 1
        cid = len(self._config_pids)
        self._config_ids[pids] = cid
        self._config_pids.append(pids)
        pieces = self._pieces
        self._config_states.append(
            tuple(pieces[k][pid] for k, pid in enumerate(pids))
        )
        full: List[Optional[Tuple[int, ...]]] = [None] * len(self.task_names)
        piece_groups = self._piece_groups
        for k, pid in enumerate(pids):
            for task_index, aids in piece_groups[k][pid]:
                full[task_index] = aids
        self._snap_full.append(tuple(full))
        self._snap_dense.append(tuple(a for a in full if a))
        return cid

    def _register_action(self, action: Action) -> None:
        # The interpreted dispatch scan is the authority: it performs the
        # lazy one-output-owner compatibility check and raises
        # CompositionError on ambiguity.  ``intern_action`` calls this
        # before it assigns an id, so an ambiguous action keeps raising
        # on every sighting, exactly as on the interpreted path.
        _owner, participants = self.base._dispatch(action)
        self._action_parts.append(participants)

    # -- Transitions --------------------------------------------------------

    def _transition(self, cid: int, aid: int) -> int:
        pids = list(self._config_pids[cid])
        action = self._action_list[aid]
        components = self.base.components
        pieces = self._pieces
        for k in self._action_parts[aid]:
            pids[k] = self._intern_piece(
                k, components[k].apply(pieces[k][pids[k]], action)
            )
        return self._intern_pids(tuple(pids))

    # -- Housekeeping -------------------------------------------------------

    def table_sizes(self) -> Dict[str, int]:
        sizes = super().table_sizes()
        sizes["pieces"] = sum(len(column) for column in self._pieces)
        return sizes

    def reset_tables(self) -> None:
        super().reset_tables()
        dropped = 0
        for index in range(len(self._pieces)):
            dropped += len(self._pieces[index])
            self._piece_ids[index].clear()
            self._pieces[index].clear()
            self._piece_groups[index].clear()
        self._c_piece.evictions += dropped
        self._c_config.evictions += len(self._config_pids)
        self._config_ids.clear()
        self._config_pids.clear()
        self._action_parts.clear()


def compile_automaton(automaton: Automaton) -> CompiledAutomaton:
    """The compiled core for ``automaton``: one per automaton instance,
    however many schedulers or specs route through it.

    The core is kept on the instance it lowers, so it lives exactly as
    long as that automaton: a discarded system frees its tables.  (A
    weak-keyed cache could not do that, because the core's ``base``
    refers back to its key.)"""
    if isinstance(automaton, CompiledAutomaton):
        return automaton
    core = vars(automaton).get("_compiled_core")
    if core is None:
        core = (
            CompiledComposition(automaton)
            if isinstance(automaton, Composition)
            else CompiledAutomaton(automaton)
        )
        automaton._compiled_core = core  # type: ignore[attr-defined]
    return core

"""Policy twins: the stock scheduler policies replayed over the id tables.

:meth:`repro.ioa.scheduler.Scheduler.run` is the one step loop of both
engines.  With ``compiled=True`` it lowers the automaton through this
module's :func:`compile_automaton` binding and drives the resulting
:class:`~repro.compiled.tables.CompiledAutomaton` like any automaton,
with the policy :func:`policy_for` picks at run start.  One compiled
step in steady state is then: the twin indexes the current config's
enabled snapshot and hands out an action, and the core's ``apply``
follows one int-keyed memo edge to the next canonical state.  No
nested-state hashing, no snapshot dict assembly, no state-tuple copy.

Byte-identity with the interpreted run is the load-bearing contract
(the property suite in ``tests/compiled/test_equivalence.py`` and the
perf guard's drift check enforce it):

* the round-robin twin replays the cursor arithmetic over task indices
  on the policy's own ``_cursor`` (``aids[0]`` of a snapshot group
  equals ``min(enabled)`` because groups are interned sorted);
* the random twin draws from its policy's own RNG over same-length
  sequences in the same order, so the draw stream is identical;
* the adversarial twin hands the chooser the interpreted options list,
  built once per config;
* any other policy (crash-rule wrappers, masks, subclasses) runs
  unchanged against the core, whose ``enabled_by_task`` returns the
  base automaton's own snapshot of the config.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.scheduler import (
    AdversarialPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulerPolicy,
)
from repro.compiled.tables import CompiledAutomaton, compile_automaton

__all__ = ["compile_automaton", "policy_for"]


class _RoundRobinTwin(SchedulerPolicy):
    """The compiled twin of :class:`RoundRobinPolicy`.

    ``_snap_full`` is indexed by task id in ``tasks()`` order and every
    group is sorted in Action order, so scanning from the policy's
    cursor and handing out ``aids[0]`` reproduces the interpreted
    policy's ``min(enabled)`` choice and cursor advance exactly.
    """

    def __init__(self, core: CompiledAutomaton, policy: RoundRobinPolicy):
        self.core = core
        self.policy = policy
        self.n = len(core.task_names)

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        n = self.n
        if not n:
            return None
        core = self.core
        cid = core._cid if state is core._state else core.config_id(state)
        snap = core._snap_full[cid]
        policy = self.policy
        cursor = policy._cursor
        for offset in range(n):
            aids = snap[(cursor + offset) % n]
            if aids:
                policy._cursor = (cursor + offset + 1) % n
                # Stored in the core's action slot, so its apply resolves
                # this action's id with one ``is`` test.
                aid = aids[0]
                action = core._action = core._action_list[aid]
                core._aid = aid
                return action
        return None


class _RandomTwin(SchedulerPolicy):
    """The compiled twin of :class:`RandomPolicy`.

    Draws from the policy's own RNG: one ``choice`` over the dense
    snapshot (same length and order as the interpreted candidates list),
    one over the chosen group (interned sorted, equal to the interpreted
    ``sorted(enabled)``).  ``random.Random.choice`` consumes entropy as
    a function of sequence *length* only, so the draw stream — and hence
    the run — is byte-identical to the interpreted policy's.
    """

    def __init__(self, core: CompiledAutomaton, policy: RandomPolicy):
        self.core = core
        self.policy = policy

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        core = self.core
        cid = core._cid if state is core._state else core.config_id(state)
        dense = core._snap_dense[cid]
        if not dense:
            return None
        rng = self.policy._rng
        aid = rng.choice(rng.choice(dense))
        action = core._action = core._action_list[aid]
        core._aid = aid
        return action


class _AdversarialTwin(SchedulerPolicy):
    """The compiled twin of :class:`AdversarialPolicy`.

    The interpreted policy's per-step options list is a pure function of
    the enabled snapshot, so it is memoized per config id — built once,
    in ``tasks()`` order, from the very tuples the interpreted policy
    would pass its chooser.  Each step hands the chooser a fresh shallow
    copy (the interpreted policy builds a new list per call); when the
    chooser abstains, the fallback policy runs against the run's view
    exactly as :meth:`AdversarialPolicy.choose` runs it.
    """

    def __init__(self, core: CompiledAutomaton, policy: AdversarialPolicy):
        self.core = core
        self.policy = policy
        self.options: Dict[int, List[Tuple[str, Tuple[Action, ...]]]] = {}

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        core = self.core
        cid = core.config_id(state)
        options = self.options.get(cid)
        if options is None:
            snapshot = core.enabled_by_task(state)
            options = [
                (task, snapshot[task])
                for task in core.task_names
                if task in snapshot
            ]
            self.options[cid] = options
        if not options:
            return None
        policy = self.policy
        chosen = policy._chooser(state, list(options), step)
        if chosen is not None:
            return chosen
        return policy._fallback.choose(automaton, state, step)


#: Exact policy type -> its twin.  Subclasses may override ``choose``
#: arbitrarily, so they run as generic policies.
_TWINS = {
    RoundRobinPolicy: _RoundRobinTwin,
    RandomPolicy: _RandomTwin,
    AdversarialPolicy: _AdversarialTwin,
}


def policy_for(
    core: CompiledAutomaton, policy: SchedulerPolicy
) -> SchedulerPolicy:
    """What a compiled run of ``core`` drives: the twin of a stock
    policy, or ``policy`` itself, which then reads the core like any
    automaton.  The caller resets ``policy``; twins keep no state of
    their own across runs."""
    twin = _TWINS.get(type(policy))
    return policy if twin is None else twin(core, policy)

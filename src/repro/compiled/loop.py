"""The array step loop: a Scheduler-equivalent driver over interned ids.

One compiled step in steady state is: index the current config's enabled
snapshot, let the policy twin pick an action id, follow one int-keyed
memo edge to the next config id, and append the pre-materialized state.
No nested-state hashing, no snapshot dict assembly, no state-tuple copy.

Byte-identity with :meth:`repro.ioa.scheduler.Scheduler.run` is the
load-bearing contract (the interpreted path is the oracle; the property
suite in ``tests/compiled/test_equivalence.py`` and the perf guard's
drift check enforce it).  Three ingredients:

* the loop structure — injection due/fast-forward resolution, stop/
  quiescence checks, observer notifications, error messages — mirrors
  the interpreted loop statement for statement;
* *policy twins*: the round-robin twin replays the cursor arithmetic
  over task indices (``aids[0]`` of a snapshot group equals
  ``min(enabled)`` because groups are interned sorted); the random twin
  draws from its policy's own RNG over same-length sequences in the
  same order, so the draw stream is identical; any other policy
  (adversaries, crash-rule wrappers) gets the *generic bridge*, which
  calls ``policy.choose`` on the base automaton and materialized state
  — interpreted speed, compiled correctness;
* states handed to ``stop_when``, observers and the returned
  :class:`~repro.ioa.executions.Execution` are the interner's canonical
  values — equal by value to the interpreted run's.

A profiler attaches the way it does to the interpreted loop: the loop
binds its per-step callables once per run and wraps them when one is
given.  Compiled profiles book ``policy`` (the driver's choice, snapshot
table reads included), ``injection``, ``stop-when`` and ``observe``,
plus the compiled core's own ``intern`` (the initial configuration and
every transition-table miss) and ``compile`` (table resolution in
:func:`compiled_run`, before the run starts).  A table hit stays an
inlined dict probe: its count is the ``compiled.apply`` cache counter's
hits and its time lands in ``unattributed``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.executions import Execution
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RandomPolicy,
    RoundRobinPolicy,
    SchedulerPolicy,
    _export_cache_metrics,
    _queued,
)
from repro.compiled.tables import CompiledAutomaton, compile_automaton


class _RoundRobinDriver:
    """The compiled twin of :class:`RoundRobinPolicy`.

    ``snapshot_full`` is indexed by task id in ``tasks()`` order and
    every group is sorted in Action order, so scanning from the cursor
    and returning ``aids[0]`` reproduces the interpreted policy's
    ``min(enabled)`` choice and cursor advance exactly.
    """

    __slots__ = ("core", "policy", "cursor", "n")

    def __init__(self, core: CompiledAutomaton, policy: RoundRobinPolicy):
        self.core = core
        self.policy = policy
        self.n = len(core.task_names)
        self.cursor = 0

    def reset(self) -> None:
        self.policy.reset()
        self.cursor = 0

    def finish(self) -> None:
        # Keep the policy object's cursor as the interpreted run would
        # have left it (observable to callers reusing the instance).
        self.policy._cursor = self.cursor

    def choose(self, cid: int, step: int) -> Optional[int]:
        n = self.n
        if not n:
            return None
        snap = self.core.snapshot_full(cid)
        cursor = self.cursor
        for offset in range(n):
            aids = snap[(cursor + offset) % n]
            if aids:
                self.cursor = (cursor + offset + 1) % n
                return aids[0]
        return None


class _RandomDriver:
    """The compiled twin of :class:`RandomPolicy`.

    Draws from the policy's own RNG: one ``choice`` over the dense
    snapshot (same length and order as the interpreted candidates list),
    one over the chosen group (interned sorted, equal to the interpreted
    ``sorted(enabled)``).  ``random.Random.choice`` consumes entropy as
    a function of sequence *length* only, so the draw stream — and hence
    the run — is byte-identical to the interpreted policy's.
    """

    __slots__ = ("core", "policy", "rng")

    def __init__(self, core: CompiledAutomaton, policy: RandomPolicy):
        self.core = core
        self.policy = policy
        self.rng = policy._rng

    def reset(self) -> None:
        self.policy.reset()
        self.rng = self.policy._rng

    def finish(self) -> None:
        pass

    def choose(self, cid: int, step: int) -> Optional[int]:
        dense = self.core.snapshot_dense(cid)
        if not dense:
            return None
        group = self.rng.choice(dense)
        return self.rng.choice(group)


class _BridgedView:
    """What the generic bridge shows a policy: the base automaton, with
    ``enabled_by_task`` memoized on state identity.

    Compiled states are canonical — ``state_of`` returns one object per
    config id — so a run that revisits a config serves the policy's
    snapshot from the memo instead of re-merging per-component enabled
    sets.  The memo holds the interpreted result verbatim (same keys,
    same insertion order, same tuples) and hands out a fresh shallow
    copy per call.  :meth:`Composition.enabled_by_task` instead returns
    a shared, read-only dict when its enabled cache is on (a fresh one
    only with the cache off); the copy keeps a policy that mutates its
    snapshot from corrupting the memo.  Entries pin the state object,
    keeping identity keys valid for the memo's lifetime.  Every other
    attribute delegates to the base automaton.
    """

    __slots__ = ("_base", "_memo")

    def __init__(self, base):
        self._base = base
        self._memo: Dict[int, tuple] = {}

    def __getattr__(self, name):
        return getattr(self._base, name)

    def enabled_by_task(self, state):
        entry = self._memo.get(id(state))
        if entry is not None and entry[0] is state:
            return dict(entry[1])
        snapshot = self._base.enabled_by_task(state)
        self._memo[id(state)] = (state, snapshot)
        return dict(snapshot)


class _GenericDriver:
    """The bridge for arbitrary policies (adversaries, rule wrappers).

    Presents the base automaton (behind :class:`_BridgedView`) and the
    materialized state, so the policy sees exactly what the interpreted
    scheduler would show it; the chosen action is interned on the way
    back.  Costs interpreted speed for first-sighting choices; revisited
    configs hit the view's snapshot memo, and actions the policy hands
    back out of memoized snapshots (canonical objects) resolve their id
    through an identity-keyed memo instead of re-hashing.
    """

    __slots__ = ("core", "policy", "view", "aid_memo")

    def __init__(self, core: CompiledAutomaton, policy: SchedulerPolicy):
        self.core = core
        self.policy = policy
        self.view = _BridgedView(core.base)
        self.aid_memo: Dict[int, tuple] = {}

    def reset(self) -> None:
        self.policy.reset()

    def finish(self) -> None:
        pass

    def _intern_chosen(self, action: Action) -> int:
        entry = self.aid_memo.get(id(action))
        if entry is not None and entry[0] is action:
            return entry[1]
        aid = self.core.intern_action(action)
        self.aid_memo[id(action)] = (action, aid)
        return aid

    def choose(self, cid: int, step: int) -> Optional[int]:
        action = self.policy.choose(
            self.view, self.core.state_of(cid), step
        )
        if action is None:
            return None
        return self._intern_chosen(action)


class _AdversarialDriver(_GenericDriver):
    """The compiled twin of :class:`AdversarialPolicy`.

    The interpreted policy's per-step options list is a pure function of
    the enabled snapshot, so it is memoized per config id — built once
    through the bridged view, in ``tasks()`` order, from the very tuples
    the interpreted policy would pass its chooser.  Each step hands the
    chooser a fresh shallow copy (the interpreted policy builds a new
    list per call); when the chooser abstains, the fallback policy runs
    against the view exactly as :meth:`AdversarialPolicy.choose` runs it
    against the base automaton.
    """

    __slots__ = ("options_memo",)

    def __init__(self, core: CompiledAutomaton, policy: AdversarialPolicy):
        super().__init__(core, policy)
        self.options_memo: Dict[int, list] = {}

    def _options(self, cid: int, state: State) -> list:
        options = self.options_memo.get(cid)
        if options is None:
            snapshot = self.view.enabled_by_task(state)
            options = [
                (task, snapshot[task])
                for task in self.core.base.tasks()
                if task in snapshot
            ]
            self.options_memo[cid] = options
        return options

    def choose(self, cid: int, step: int) -> Optional[int]:
        state = self.core.state_of(cid)
        options = self._options(cid, state)
        if not options:
            return None
        policy = self.policy
        action = policy._chooser(state, list(options), step)
        if action is None:
            action = policy._fallback.choose(self.view, state, step)
        if action is None:
            return None
        return self._intern_chosen(action)


def _driver_for(core: CompiledAutomaton, policy: SchedulerPolicy):
    # Exact types only: subclasses may override choose() arbitrarily and
    # must go through the generic bridge.
    if type(policy) is RoundRobinPolicy:
        return _RoundRobinDriver(core, policy)
    if type(policy) is RandomPolicy:
        return _RandomDriver(core, policy)
    if type(policy) is AdversarialPolicy:
        return _AdversarialDriver(core, policy)
    return _GenericDriver(core, policy)


def run_compiled(
    core: CompiledAutomaton,
    policy: SchedulerPolicy,
    max_steps: int,
    injections: Iterable[Injection] = (),
    stop_when: Optional[Callable[[State, int], bool]] = None,
    start: Optional[State] = None,
    observer=None,
    metrics=None,
    profiler=None,
) -> Execution:
    """Produce an execution over the compiled tables.

    Semantics (and the returned execution) are identical to
    ``Scheduler.run`` with the same arguments on ``core.base``.
    """
    driver = _driver_for(core, policy)
    driver.reset()
    base = core.base
    choose = driver.choose
    enabled = base.enabled
    intern_config = core.intern_config
    transition = core._transition
    if profiler is not None:
        choose = profiler.timed("policy", choose)
        enabled = profiler.timed("injection", enabled)
        intern_config = profiler.timed("intern", intern_config)
        transition = profiler.timed("intern", transition)
        if stop_when is not None:
            stop_when = profiler.timed("stop-when", stop_when)
        if observer is not None:
            observer = profiler.observer(observer)
    wall_start = time.perf_counter() if metrics is not None else 0.0
    if metrics is not None:
        from repro.obs.prof import cache_stats_snapshot

        cache_base = cache_stats_snapshot()
    pending: Dict[int, List[Action]] = {}
    for injection in injections:
        pending.setdefault(injection.step, []).append(injection.action)
    if profiler is not None:
        queued = _queued(pending)
        profiler.on_run_start()

    cid = intern_config(base.initial_state() if start is None else start)
    state = core.state_of(cid)
    states: List[State] = [state]
    actions: List[Action] = []
    step = 0
    reason = "max-steps"
    # Steady state is one memo probe per step; the probe (and its
    # counter tallies, identical to ``apply_ids``) is inlined with the
    # lookups hoisted so the hot path is two dict gets and two appends.
    apply_memo = core._apply_memo
    apply_counter = core._c_apply
    state_of = core.state_of
    push_state = states.append
    push_action = actions.append
    if observer is not None:
        observer.on_run_start(base, max_steps)
    while step < max_steps:
        if stop_when is not None and stop_when(state, step):
            reason = "stopped"
            break
        if observer is not None:
            observer.on_step_scheduled(step)
        injected = False
        due = (
            min((s for s in pending if s <= step), default=None)
            if pending
            else None
        )
        if due is not None:
            action = pending[due].pop(0)
            if not pending[due]:
                del pending[due]
            if not enabled(state, action):
                raise ValueError(
                    f"injection {action} at step {step} is not enabled"
                )
            injected = True
            aid = core.intern_action(action)
        else:
            aid = choose(cid, step)
            if aid is None:
                if not pending:
                    reason = "quiescent"
                    break
                next_step = min(pending)
                action = pending[next_step].pop(0)
                if not pending[next_step]:
                    del pending[next_step]
                if not enabled(state, action):
                    raise ValueError(
                        f"injection {action} (fast-forwarded from step "
                        f"{next_step}) is not enabled"
                    )
                injected = True
                aid = core.intern_action(action)
            else:
                action = core.action_of(aid)
        key = (cid, aid)
        nid = apply_memo.get(key)
        if nid is not None:
            apply_counter.hits += 1
            cid = nid
        else:
            apply_counter.misses += 1
            cid = transition(cid, aid)
            apply_memo[key] = cid
        state = state_of(cid)
        push_state(state)
        push_action(action)
        if observer is not None:
            observer.on_action(step, action, injected)
        step += 1
    driver.finish()
    if observer is not None:
        observer.on_run_end(step, reason)
    if profiler is not None:
        profiler.on_run_end(step, queued - _queued(pending))
    if metrics is not None:
        metrics.counter("scheduler.runs").inc()
        metrics.counter("scheduler.steps").inc(step)
        metrics.histogram("scheduler.run_wall_s").observe(
            time.perf_counter() - wall_start
        )
        _export_cache_metrics(metrics, cache_base)
    return Execution(states, actions)


def compiled_run(
    automaton,
    policy: SchedulerPolicy,
    max_steps: int,
    injections: Iterable[Injection] = (),
    stop_when: Optional[Callable[[State, int], bool]] = None,
    start: Optional[State] = None,
    observer=None,
    metrics=None,
    profiler=None,
) -> Execution:
    """Compile (cached per automaton instance) and run.

    The :class:`~repro.ioa.scheduler.Scheduler` routes here when
    compiled execution is requested; with a profiler attached, table
    resolution is booked under the ``compile`` phase.
    """
    if profiler is not None:
        core = profiler.timed("compile", compile_automaton)(automaton)
    else:
        core = compile_automaton(automaton)
    return run_compiled(
        core,
        policy,
        max_steps,
        injections=injections,
        stop_when=stop_when,
        start=start,
        observer=observer,
        metrics=metrics,
        profiler=profiler,
    )

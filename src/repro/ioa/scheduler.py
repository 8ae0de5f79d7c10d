"""The simulation engine: producing fair executions of automata.

The paper quantifies over fair executions of compositions (Section 2.4).
The scheduler resolves the two sources of nondeterminism in a run:

* *which task moves next* — resolved by a :class:`SchedulerPolicy`
  (round-robin and seeded-random policies guarantee that every task is
  offered a turn infinitely often, so maximal runs are fair and truncated
  runs are prefixes of fair executions);
* *when environment-style free actions occur* (crash events, whose
  automaton has no fairness obligation, Section 4.4) — resolved by
  :class:`Injection` plans supplied by the experiment.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.executions import Execution
from repro.obs.prof import StepProfiler

#: The chaos channels' internal delay-aging action
#: (:data:`repro.faults.channels.TICK`); a profiled run books its
#: applies under the phase of the same name.
CHAN_TICK = "chan-tick"


def _queued(pending: Dict[int, List[Action]]) -> int:
    """How many injections are still waiting in ``pending``."""
    return sum(len(actions) for actions in pending.values())


def _timed_apply(prof, apply):
    """``apply`` booked under ``chan-tick`` for the chaos channels'
    delay ager and under ``apply`` for every other action."""
    plain = prof.timed("apply", apply)
    tick = prof.timed("chan-tick", apply)

    def timed_apply(state, action):
        return (tick if action.name == CHAN_TICK else plain)(state, action)

    return timed_apply


def _close(states, actions, cursors, quiet, period, max_steps):
    """Finish a run whose (state, cursor) pair just recurred after
    ``period`` steps, with nothing queued since step ``quiet``.

    From there on each step repeats the step ``period`` earlier, so the
    remaining events are the last ``period`` ones repeated, appended by
    list repetition.  Returns the run's lasso ``(mu, period)`` and the
    cursor the full run would end on.  ``mu`` is the least step from
    ``quiet`` whose pair recurs ``period`` steps later: where the cycle
    starts.
    """
    t = len(actions)
    begin = t - period
    mu = next(
        i
        for i in range(quiet, begin + 1)
        if cursors[i] == cursors[i + period]
        and (states[i] is states[i + period] or states[i] == states[i + period])
    )
    repeats, extra = divmod(max_steps - t, period)
    cycle = actions[begin:]
    actions += cycle * repeats + cycle[:extra]
    cycle = states[begin + 1 :]
    states += cycle * repeats + cycle[:extra]
    return (mu, period), cursors[begin + extra]


#: Matches no state: a fresh view has answered for nothing yet.
_NO_STATE = object()


class _SnapshotReuse:
    """What :meth:`Scheduler.run` shows its policy: the automaton, with
    ``enabled_by_task`` answered from the last snapshot when asked about
    the very state object it last answered for.

    An action whose ``apply`` returns its state unchanged (a detector's
    fd output) makes the next step ask about the same object, and a
    policy may ask twice in one step (the adversarial fallback); both
    cost one ``is`` test.  Identity, not equality: an equal but distinct
    state is asked afresh, so nothing is hashed.  Any other state goes to
    ``ask``, the automaton's ``enabled_by_task`` as bound at run start
    (booked under ``snapshot`` when profiled).  Every other attribute
    delegates to the automaton; ``tasks`` is bound directly, since every
    built-in policy reads it each step.
    """

    __slots__ = ("_base", "_ask", "_state", "_snapshot", "tasks")

    def __init__(self, base: Automaton, ask):
        self._base = base
        self._ask = ask
        self._state: State = _NO_STATE
        self._snapshot: Dict[str, Tuple[Action, ...]] = {}
        self.tasks = base.tasks

    def __getattr__(self, name):
        return getattr(self._base, name)

    def enabled_by_task(self, state: State) -> Dict[str, Tuple[Action, ...]]:
        if state is self._state:
            return self._snapshot
        snapshot = self._ask(state)
        self._state = state
        self._snapshot = snapshot
        return snapshot


#: Process-wide fallback profiler (see :func:`set_default_profiler`).
_DEFAULT_PROFILER = None


def set_default_profiler(profiler):
    """Install a process-wide fallback :class:`~repro.obs.prof.StepProfiler`.

    Schedulers constructed *after* this call with no profiler of their
    own adopt it — the seam the benchmark CLIs' ``--profile`` flag uses
    to profile kernels that build their schedulers internally.  The
    check happens once at ``Scheduler`` construction, and the profiler
    attaches to each run by wrapping the step loop's callables at run
    start, never by a per-step test.  An explicit ``instrument=``
    profiler always wins.  Returns the previous default
    so callers can restore it (``try/finally``), mirroring
    :func:`repro.ioa.composition.set_enabled_cache_default`.
    """
    global _DEFAULT_PROFILER
    previous = _DEFAULT_PROFILER
    _DEFAULT_PROFILER = profiler
    return previous


@dataclass(frozen=True)
class Injection:
    """Fire ``action`` at global step ``step`` (before the policy's turn).

    Used for crash events and other adversary-controlled free actions.
    If the action is not enabled at that step the injection is an error:
    crash actions are enabled in every state, so this only triggers on
    misconfigured plans.
    """

    step: int
    action: Action


class SchedulerPolicy(ABC):
    """Chooses the next locally controlled action to perform."""

    @abstractmethod
    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        """The next action to fire, or ``None`` if nothing is enabled.

        Under :meth:`Scheduler.run`, ``automaton`` is the run's view of
        the automaton: its ``enabled_by_task`` hands out the previous
        snapshot when asked about the same state object again, so the
        dict is shared across calls and must be treated as read-only.
        On the compiled engine the view wraps the compiled core, which
        answers with the base automaton's own snapshots.
        """

    def reset(self) -> None:
        """Forget any internal position; called at the start of a run."""


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle over the automaton's tasks, firing the first enabled action.

    Every task is offered a turn once per cycle, so maximal runs under this
    policy are fair.  Within a task, the least action (actions order
    lexicographically) is chosen, making runs fully deterministic: the
    next step is a function of the state and ``_cursor`` alone, which is
    why :meth:`Scheduler.run` can close a run of this exact type once
    that pair repeats.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        tasks = automaton.tasks()
        if not tasks:
            return None
        # One enabled snapshot for the whole step (grouped by task) instead
        # of one enabled_in_task enumeration per task.
        snapshot = automaton.enabled_by_task(state)
        if not snapshot:
            return None
        n = len(tasks)
        for offset in range(n):
            task = tasks[(self._cursor + offset) % n]
            enabled = snapshot.get(task)
            if enabled:
                self._cursor = (self._cursor + offset + 1) % n
                return min(enabled)
        return None


class RandomPolicy(SchedulerPolicy):
    """Pick a uniformly random enabled task, then a random enabled action.

    Fair with probability 1 over infinite runs.  Fully reproducible given
    the seed.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        # One snapshot per step; candidates keep tasks() order so the
        # RNG draws — and hence the runs — are identical to the
        # per-task-enumeration implementation.
        snapshot = automaton.enabled_by_task(state)
        if not snapshot:
            return None
        candidates: List[Tuple[str, Tuple[Action, ...]]] = [
            (task, snapshot[task])
            for task in automaton.tasks()
            if task in snapshot
        ]
        if not candidates:
            return None
        _, enabled = self._rng.choice(candidates)
        return self._rng.choice(sorted(enabled))


class AdversarialPolicy(SchedulerPolicy):
    """A policy driven by a caller-supplied choice function.

    ``chooser(state, options, step)`` receives the scheduler's *current
    state* (the automaton state the chosen action will fire in), the list
    of (task, enabled actions) pairs, and the step number; it returns the
    action to fire, or ``None`` to pass the turn to the fallback policy.
    A fallback (default: round-robin) keeps maximal runs fair when the
    adversary abstains.

    Used by the FLP-baseline experiment (E11) to stall consensus runs.
    """

    def __init__(
        self,
        chooser: Callable[
            [State, Sequence[Tuple[str, Tuple[Action, ...]]], int],
            Optional[Action],
        ],
        fallback: Optional[SchedulerPolicy] = None,
    ):
        self._chooser = chooser
        self._fallback = fallback or RoundRobinPolicy()

    def reset(self) -> None:
        self._fallback.reset()

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        # When the chooser abstains the fallback asks for this state's
        # snapshot again; the run's view answers it with this very dict.
        snapshot = automaton.enabled_by_task(state)
        options: List[Tuple[str, Tuple[Action, ...]]] = [
            (task, snapshot[task])
            for task in automaton.tasks()
            if task in snapshot
        ]
        if not options:
            return None
        chosen = self._chooser(state, options, step)
        if chosen is not None:
            return chosen
        return self._fallback.choose(automaton, state, step)


class Scheduler:
    """Runs an automaton under a policy, with optional injections.

    Parameters
    ----------
    policy:
        The scheduling policy; default round-robin.
    instrument:
        A :class:`repro.obs.prof.StepProfiler`, which books per-phase
        costs through timing wrappers around the callables :meth:`run`
        binds once per run (``policy.choose``, ``apply``, the injection
        ``enabled`` check, ``stop_when``, the automaton's
        ``enabled_by_task``, so ``snapshot`` books only the snapshots
        the run computes, and the replay of a closed run) — the same
        loop, identical executions.  ``None`` (the default) wraps
        nothing.  The :class:`Execution` a run returns is its whole
        record, and :meth:`repro.obs.trace.TraceRecorder.record_run`
        reads the canonical trace from it.
    compiled:
        ``True`` makes :meth:`run` drive the compiled core
        (:mod:`repro.compiled`): the automaton is lowered once into
        interned-id tables (cached per automaton instance) and run by
        this same step loop, the stock policies swapped for twins that
        read the tables (:func:`repro.compiled.loop.policy_for`) — same
        executions, same profiler phases, table-replay speed.  ``False``
        runs the automaton itself; ``None`` (default) defers to the
        process default (:func:`repro.compiled.config.set_compiled_default`),
        which is off unless opted into — the interpreted engine remains
        the oracle.

    Examples
    --------
    >>> from repro.detectors.omega import OmegaAutomaton
    >>> sched = Scheduler()
    >>> fd = OmegaAutomaton(locations=(0, 1))
    >>> execution = sched.run(fd, max_steps=6)
    >>> len(execution)
    6
    """

    def __init__(
        self,
        policy: Optional[SchedulerPolicy] = None,
        instrument: Optional[StepProfiler] = None,
        compiled: Optional[bool] = None,
    ):
        if instrument is not None and not isinstance(instrument, StepProfiler):
            raise TypeError(
                "instrument= takes a StepProfiler or None, got "
                f"{type(instrument).__name__}; for a trace, use "
                "ExperimentSpec(instrument=True) or "
                "TraceRecorder.record_run on the returned execution"
            )
        self.policy = policy or RoundRobinPolicy()
        self.compiled = compiled
        self.profiler = (
            instrument if instrument is not None else _DEFAULT_PROFILER
        )

    def run(
        self,
        automaton: Automaton,
        max_steps: int,
        injections: Iterable[Injection] = (),
        stop_when: Optional[Callable[[State], bool]] = None,
        start: Optional[State] = None,
    ) -> Execution:
        """Produce an execution of at most ``max_steps`` events.

        The run ends early if the system quiesces (no task enabled and no
        injection pending) or ``stop_when(state)`` returns True.
        Injections scheduled at steps beyond the end of the run are
        silently dropped (the adversary chose not to act in time).

        The policy sees the automaton through a per-run view that keeps
        the last enabled-by-task snapshot: asked about the state object
        it last answered for (``apply`` returned its state unchanged, or
        the policy asks twice in a step), it returns that snapshot
        instead of asking the automaton again.

        A run under a :class:`RoundRobinPolicy` (that exact type), with
        nothing queued, is *closed* once its (state, cursor) pair
        repeats (Brent's cycle detection, tested ``is`` before ``==``):
        the next step is a function of that pair, so the rest of the run
        is the cycle again.  Its remaining events are appended by list
        repetition, the cursor ends where the full run would leave it,
        and the execution records its lasso ``(mu, period)``
        (:attr:`Execution.lasso`): the fair execution prefix .
        cycle^omega (Section 2.4).  ``stop_when`` was false on every
        cycle state, so the run still ends ``"max-steps"``.  A profiler
        does not block closure: it only times the loop's callables, and
        every ``apply`` is a pure function.

        The execution also notes which steps an injection supplied
        (:attr:`Execution.injected`; a closed run's replayed steps
        never are, since nothing is queued by then) and why the run
        ended (:attr:`Execution.reason`).
        """
        from repro.compiled.config import resolve_compiled

        policy = self.policy
        policy.reset()
        prof = self.profiler
        if resolve_compiled(self.compiled):
            # The compiled core is driven like any automaton; the stock
            # policies swap in twins that read its id tables.
            from repro.compiled import loop

            lower = loop.compile_automaton
            if prof is not None:
                lower = prof.timed("compile", lower)
            automaton = lower(automaton)
            policy = loop.policy_for(automaton, policy)
        # The per-step callables, bound once per run (after any
        # class-level patching, so external tracers still see every call).
        choose = policy.choose
        enabled = automaton.enabled
        apply = automaton.apply
        enabled_by_task = automaton.enabled_by_task
        if prof is not None:
            enabled_by_task = prof.timed("snapshot", enabled_by_task)
            choose = prof.timed("policy", choose)
            enabled = prof.timed("injection", enabled)
            apply = _timed_apply(prof, apply)
            if stop_when is not None:
                stop_when = prof.timed("stop-when", stop_when)
        close = _close if prof is None else prof.timed("replay", _close)
        view = _SnapshotReuse(automaton, enabled_by_task)
        pending: Dict[int, List[Action]] = {}
        for injection in injections:
            pending.setdefault(injection.step, []).append(injection.action)
        if prof is not None:
            queued = _queued(pending)
            prof.open_run()

        state = automaton.initial_state() if start is None else start
        states: List[State] = [state]
        actions: List[Action] = []
        injected: List[int] = []
        step = 0
        reason = "max-steps"
        # Lasso detection (Brent): the cursor before each step, and the
        # tortoise pair laid at step ``mark``, compared with every later
        # pair until step ``mark_end`` lays the next one.  While anything
        # is queued the tortoise is dropped (cursor -1 matches nothing);
        # ``quiet`` is the step where the queue emptied.  ``reset`` put
        # the cursor at 0.
        rr = self.policy
        watch = type(rr) is RoundRobinPolicy
        cursors = [0]
        mark_state, mark_cursor = state, -1 if pending else 0
        mark = quiet = period = 0
        mark_end = window = 1
        while step < max_steps:
            if stop_when is not None and stop_when(state):
                reason = "stopped"
                break
            # An injection fires at the first step >= its scheduled step
            # (several injections can share a step; the later ones spill
            # over into subsequent steps).
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
                injected.append(step)
            else:
                chosen = choose(view, state, step)
                if chosen is None:
                    if not pending:
                        reason = "quiescent"
                        break
                    # Nothing locally enabled: fast-forward to the next
                    # injection.
                    next_step = min(pending)
                    action = pending[next_step].pop(0)
                    if not pending[next_step]:
                        del pending[next_step]
                    if not enabled(state, action):
                        raise ValueError(
                            f"injection {action} (fast-forwarded from step "
                            f"{next_step}) is not enabled"
                        )
                    injected.append(step)
                else:
                    action = chosen
            state = apply(state, action)
            states.append(state)
            actions.append(action)
            step += 1
            if watch:
                cursor = rr._cursor
                cursors.append(cursor)
                if cursor == mark_cursor and (
                    state is mark_state or state == mark_state
                ):
                    period = step - mark
                    break
                if step == mark_end:
                    mark = step
                    if pending:
                        mark_end = step + 1
                    else:
                        if mark_cursor < 0:
                            quiet = step
                        mark_state, mark_cursor = state, cursor
                        window *= 2
                        mark_end = step + window
        lasso = None
        replayed = 0
        if period:
            replayed = max_steps - step
            lasso, rr._cursor = close(
                states, actions, cursors, quiet, period, max_steps
            )
            step = max_steps
        if prof is not None:
            prof.close_run(step, queued - _queued(pending), replayed)
        return Execution(
            states,
            actions,
            lasso=lasso,
            injected=tuple(injected),
            reason=reason,
        )

    def run_to_quiescence(
        self,
        automaton: Automaton,
        max_steps: int,
        injections: Iterable[Injection] = (),
        start: Optional[State] = None,
    ) -> Execution:
        """Run until no task is enabled; raise if the bound is hit first."""
        execution = self.run(
            automaton, max_steps, injections=injections, start=start
        )
        if len(execution) >= max_steps:
            still = [
                t
                for t in automaton.tasks()
                if automaton.task_enabled(execution.final_state, t)
            ]
            if still:
                raise RuntimeError(
                    f"system did not quiesce within {max_steps} steps; "
                    f"enabled tasks: {still[:5]}"
                )
        return execution

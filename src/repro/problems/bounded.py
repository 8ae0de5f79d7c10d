"""Bounded problems and the constructions of Theorem 21 (Sections 7.3–7.4).

A crash problem P is *bounded* iff some automaton U solves P, is *crash
independent* (deleting the crash events from any finite trace leaves a
trace of U) and has *bounded length* (at most b output events in any
trace).  Theorem 21: a bounded problem that is unsolvable in E has no
representative AFD in E.

The proof is a chain of constructions on concrete executions, and this
module makes each executable:

* :func:`check_bounded_length` — Proposition 22's ingredient: every run of
  U has at most b outputs;
* :func:`check_crash_independence` — strip the crash events from a run of
  U and replay the remainder; it must still be applicable;
* :func:`find_quiescent_execution` — Lemma 23: extend a finished run by
  delivering every in-transit message, reaching a state with empty
  channels after which no problem outputs occur;
* :func:`strip_crash_events` + replay — Lemma 24: the crash-free variant
  of the quiescent execution is itself an execution with the same
  no-more-outputs property.

Experiment E15 drives these against the consensus witness automaton and a
full distributed system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.executions import Execution, apply_schedule
from repro.ioa.scheduler import (
    Injection,
    RoundRobinPolicy,
    Scheduler,
    SchedulerPolicy,
)
from repro.core.afd import CheckResult
from repro.system.fault_pattern import is_crash


def strip_crash_events(actions: Sequence[Action]) -> List[Action]:
    """Delete exactly the crash events (the t_0 of Lemma 24)."""
    return [a for a in actions if not is_crash(a)]


def check_bounded_length(
    automaton: Automaton,
    is_output: Callable[[Action], bool],
    bound: int,
    runs: Iterable[Tuple[int, Sequence[Injection]]],
) -> CheckResult:
    """Run ``automaton`` under each (max_steps, injections) scenario and
    verify no run exceeds ``bound`` output events."""
    for k, (max_steps, injections) in enumerate(runs):
        scheduler = Scheduler()
        execution = scheduler.run(
            automaton, max_steps=max_steps, injections=injections
        )
        outputs = [a for a in execution.actions if is_output(a)]
        if len(outputs) > bound:
            return CheckResult.failure(
                f"run #{k} produced {len(outputs)} outputs, bound is {bound}"
            )
    return CheckResult.success()


def check_crash_independence(
    automaton: Automaton, execution: Execution
) -> CheckResult:
    """Replay the execution's schedule with crash events deleted.

    Crash independence demands the crash-free schedule be applicable to
    the automaton from its initial state.
    """
    stripped = strip_crash_events(execution.actions)
    try:
        apply_schedule(automaton, stripped)
    except ValueError as error:
        return CheckResult.failure(
            f"crash-free replay failed: {error}"
        )
    return CheckResult.success()


class MaskedRoundRobinPolicy(SchedulerPolicy):
    """Round-robin over the tasks for which ``allowed(task)`` holds.

    Used to quiesce a system 'modulo' components that never stop (the
    failure-detector automaton keeps outputting forever; Lemma 23 only
    needs the algorithm-and-channel part to drain)."""

    def __init__(self, allowed: Callable[[str], bool]):
        self._allowed = allowed
        self._inner = RoundRobinPolicy()

    def reset(self) -> None:
        self._inner.reset()

    def choose(self, automaton, state, step):
        tasks = [t for t in automaton.tasks() if self._allowed(t)]
        if not tasks:
            return None
        n = len(tasks)
        for offset in range(n):
            task = tasks[(self._inner._cursor + offset) % n]
            enabled = automaton.enabled_in_task(state, task)
            if enabled:
                self._inner._cursor = (
                    self._inner._cursor + offset + 1
                ) % n
                return min(enabled)
        return None


@dataclass
class QuiescenceReport:
    """The result of the Lemma 23 construction on a concrete run."""

    execution: Execution
    quiescent: bool
    channels_empty: bool
    outputs_before: int
    outputs_in_probe: int

    @property
    def lemma23_holds(self) -> bool:
        """Quiescent final state, empty channels, and the probe extension
        produced no further problem outputs."""
        return (
            self.quiescent
            and self.channels_empty
            and self.outputs_in_probe == 0
        )


def find_quiescent_execution(
    composition: Automaton,
    is_output: Callable[[Action], bool],
    injections: Sequence[Injection] = (),
    max_steps: int = 3000,
    probe_steps: int = 300,
    allowed_task: Optional[Callable[[str], bool]] = None,
    channels_empty: Optional[Callable[[State], bool]] = None,
    settle_when: Optional[Callable[[State], bool]] = None,
) -> QuiescenceReport:
    """Lemma 23, executably, in two phases.

    Phase 1 (only when ``settle_when`` is given): run the *full* system —
    failure detector included — until ``settle_when(state)`` holds;
    this reproduces Proposition 22's maximal-output execution alpha_f.
    Phase 2: continue under a scheduler masked to ``allowed_task`` (which
    excludes never-quiescing components such as detectors) until nothing
    allowed is enabled — the message-draining extension to alpha_q.
    Finally, probe with the full scheduler and count problem outputs:
    Lemma 23 claims the probe finds none.
    """
    allowed = allowed_task if allowed_task is not None else (lambda _t: True)
    start_state = None
    prefix = None
    if settle_when is not None:
        full_scheduler = Scheduler()
        prefix = full_scheduler.run(
            composition,
            max_steps=max_steps,
            injections=injections,
            stop_when=settle_when,
        )
        start_state = prefix.final_state
        injections = ()
    scheduler = Scheduler(MaskedRoundRobinPolicy(allowed))
    execution = scheduler.run(
        composition,
        max_steps=max_steps,
        injections=injections,
        start=start_state,
    )
    if prefix is not None:
        execution = prefix.concat(execution)
    final = execution.final_state
    still_enabled = [
        t
        for t in composition.tasks()
        if allowed(t) and composition.task_enabled(final, t)
    ]
    quiescent = not still_enabled
    empty = channels_empty(final) if channels_empty is not None else True
    # Probe: extend with the full (unmasked) scheduler and count outputs.
    probe_scheduler = Scheduler()
    probe = probe_scheduler.run(
        composition, max_steps=probe_steps, start=final
    )
    return QuiescenceReport(
        execution=execution,
        quiescent=quiescent,
        channels_empty=empty,
        outputs_before=sum(1 for a in execution.actions if is_output(a)),
        outputs_in_probe=sum(1 for a in probe.actions if is_output(a)),
    )


@dataclass
class BoundedProblemAnalysis:
    """Bundles the Theorem 21 ingredient checks for one witness automaton.

    Parameters
    ----------
    automaton:
        The candidate witness U.
    is_output:
        Membership predicate for O_P.
    bound:
        The claimed output bound b.
    """

    automaton: Automaton
    is_output: Callable[[Action], bool]
    bound: int

    def verify(
        self,
        runs: Iterable[Tuple[int, Sequence[Injection]]],
    ) -> CheckResult:
        """Check bounded length across ``runs`` and crash independence on
        each of them."""
        runs = list(runs)
        result = check_bounded_length(
            self.automaton, self.is_output, self.bound, runs
        )
        if not result:
            return result
        for max_steps, injections in runs:
            execution = Scheduler().run(
                self.automaton, max_steps=max_steps, injections=injections
            )
            sub = check_crash_independence(self.automaton, execution)
            if not sub:
                return sub
        return CheckResult.success()

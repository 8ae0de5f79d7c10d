"""Lasso-closed runs: when ``Scheduler.run`` stops stepping, and what it
replays.

A round-robin run (that exact policy type) with nothing queued is closed
once its (state, cursor) pair repeats; the rest of the run is the cycle,
appended without stepping.  One test per eligibility condition, plus the
exact lasso of a hand-built machine and the profiler's account of
executed and replayed steps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.faults import FaultPlan
from repro.faults.adversary import CrashRuleController
from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
)
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.prof import StepProfiler
from repro.obs.trace import TraceRecorder
from repro.problems.bounded import MaskedRoundRobinPolicy
from repro.runner import ExperimentSpec, run_spec

GO = Action("go", 0)
T1 = Action("t1", 0)
T2 = Action("t2", 1)
IN = Action("in", 0)

ENGINES = pytest.mark.parametrize("compiled", [False, True])


def prefix_and_cycle():
    """One task, states 0 -> 1 -> 2 -> 3 -> 4 -> 2: a 2-step prefix
    into a 3-cycle."""
    successor = {0: 1, 1: 2, 2: 3, 3: 4, 4: 2}
    return FunctionalAutomaton(
        name="lasso",
        signature=Signature(outputs=FiniteActionSet([GO])),
        initial=0,
        transition=lambda s, a: successor[s],
        enabled_fn=lambda s: [GO],
    )


def two_tasks_one_state():
    """Two always-enabled tasks that never change the state (``in``
    neither): the state repeats at once, the pair only every 2 steps."""
    return FunctionalAutomaton(
        name="pair",
        signature=Signature(
            inputs=FiniteActionSet([IN]),
            outputs=FiniteActionSet([T1, T2]),
        ),
        initial=(0,),
        transition=lambda s, a: s,
        enabled_fn=lambda s: [T1, T2],
        task_names=("one", "two"),
        task_assignment=lambda a: "one" if a == T1 else "two",
    )


def park_then_cycle():
    """``t1`` loops at 0 and at 2; ``in`` moves 0 -> 1 -> 2, and state 1
    enables nothing, so an injection due later is fast-forwarded."""
    return FunctionalAutomaton(
        name="park",
        signature=Signature(
            inputs=FiniteActionSet([IN]), outputs=FiniteActionSet([T1])
        ),
        initial=0,
        transition=lambda s, a: s + 1 if a == IN else s,
        enabled_fn=lambda s: [] if s == 1 else [T1],
    )


class RoundRobinSubclass(RoundRobinPolicy):
    """Same choices; not the exact type, so its runs never close."""


class TestExactLasso:
    @ENGINES
    def test_prefix_of_two_and_cycle_of_three(self, compiled):
        execution = Scheduler(compiled=compiled).run(prefix_and_cycle(), 20)
        assert execution.lasso == (2, 3)
        assert list(execution.states) == [0, 1] + [2, 3, 4] * 6 + [2]
        assert list(execution.actions) == [GO] * 20

    @ENGINES
    def test_cursor_is_part_of_the_pair(self, compiled):
        policy = RoundRobinPolicy()
        execution = Scheduler(policy, compiled=compiled).run(
            two_tasks_one_state(), 11
        )
        # The state repeats after one step; the run only after two.
        assert execution.lasso == (0, 2)
        assert list(execution.actions) == [T1, T2] * 5 + [T1]
        assert policy._cursor == 1

    @ENGINES
    def test_closed_run_traces_like_the_stepped_run(self, compiled):
        # The second injection is fast-forwarded; the run closes after it.
        injections = [Injection(5, IN), Injection(500, IN)]
        traces = []
        for policy in (RoundRobinPolicy(), RoundRobinSubclass()):
            execution = Scheduler(policy, compiled=compiled).run(
                park_then_cycle(), 30, injections=injections
            )
            recorder = TraceRecorder()
            recorder.record_run("park", 30, execution)
            traces.append((execution.lasso, recorder.canonical_jsonl_lines()))
        (closed_lasso, closed), (stepped_lasso, stepped) = traces
        assert closed_lasso is not None and stepped_lasso is None
        assert closed == stepped

    def test_repeat_on_the_last_step_still_records_the_lasso(self):
        # Brent's search first matches at step 6; nothing is left to replay.
        execution = Scheduler().run(prefix_and_cycle(), 6)
        assert execution.lasso == (2, 3)
        assert list(execution.states) == [0, 1, 2, 3, 4, 2, 3]

    def test_runs_that_never_repeat_have_no_lasso(self):
        execution = Scheduler().run(prefix_and_cycle(), 5)
        assert execution.lasso is None


class TestQueuedInjections:
    @ENGINES
    def test_queued_injection_defers_closure(self, compiled):
        prof = StepProfiler()
        execution = Scheduler(instrument=prof, compiled=compiled).run(
            two_tasks_one_state(), 40, injections=[Injection(10, IN)]
        )
        assert execution.actions[10] == IN
        assert list(execution.actions) == (
            [T1, T2] * 5 + [IN] + [T1, T2] * 14 + [T1]
        )
        # The queue empties after step 10; the cycle starts there.
        assert execution.lasso == (11, 2)
        assert prof.replayed > 0

    @ENGINES
    def test_fast_forwarded_injection_is_queued_too(self, compiled):
        injections = [Injection(5, IN), Injection(500, IN)]
        execution = Scheduler(compiled=compiled).run(
            park_then_cycle(), 30, injections=injections
        )
        # Step 6 finds nothing enabled and fast-forwards the second one.
        assert list(execution.actions) == [T1] * 5 + [IN, IN] + [T1] * 23
        assert execution.final_state == 2
        assert execution.lasso == (7, 1)

    def test_injection_beyond_the_run_blocks_closure(self):
        prof = StepProfiler()
        execution = Scheduler(instrument=prof).run(
            two_tasks_one_state(), 30, injections=[Injection(100, IN)]
        )
        assert execution.lasso is None
        assert prof.replayed == 0
        assert prof.phase_calls["apply"] == 30


def masked():
    return MaskedRoundRobinPolicy(lambda task: True)


def adversary():
    return AdversarialPolicy(lambda state, options, step: None)


def rule_driven():
    return CrashRuleController([]).wrap(RoundRobinPolicy())


class TestIneligibleRunsNeverClose:
    @ENGINES
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: RandomPolicy(seed=3),
            adversary,
            masked,
            RoundRobinSubclass,
            rule_driven,
        ],
        ids=["random", "adversarial", "masked", "subclass", "rule-driven"],
    )
    def test_other_policies_step_every_step(self, make_policy, compiled):
        prof = StepProfiler()
        execution = Scheduler(
            make_policy(), instrument=prof, compiled=compiled
        ).run(two_tasks_one_state(), 30)
        assert len(execution) == 30
        assert execution.lasso is None
        assert prof.replayed == 0
        assert prof.phase_calls["apply"] == 30
        assert "replay" not in prof.phase_calls

    @ENGINES
    def test_profilers_do_not_block_closure(self, compiled):
        plain = Scheduler(compiled=compiled).run(prefix_and_cycle(), 20)
        watched = Scheduler(
            instrument=StepProfiler(), compiled=compiled
        ).run(prefix_and_cycle(), 20)
        assert plain.lasso == watched.lasso == (2, 3)
        assert watched == plain

    @ENGINES
    def test_instrumented_specs_close(self, compiled):
        # Lossy channels keep this consensus run from ever settling, so
        # it runs its whole budget.
        spec = ExperimentSpec(
            algorithm=omega_consensus_algorithm,
            detector="omega",
            locations=(0, 1, 2),
            proposals={0: 1, 1: 0, 2: 1},
            f=1,
            seed=5,
            max_steps=3_000,
            fault_plan=FaultPlan.uniform(drop_p=0.3),
            compiled=compiled,
        )
        traced = replace(spec, instrument=True)
        plain = run_spec(spec, keep=True)
        watched = run_spec(traced, keep=True)
        stepped = run_spec(traced, policy=RoundRobinSubclass(), keep=True)
        lasso = watched.run.execution.lasso
        assert lasso == plain.run.execution.lasso == (28, 3)
        assert watched.steps == plain.steps == 3_000
        assert watched.decisions == plain.decisions
        assert stepped.run.execution.lasso is None
        assert watched.trace == stepped.trace


class TestProfilerAccount:
    @ENGINES
    def test_replayed_counter_and_replay_phase(self, compiled):
        prof = StepProfiler()
        Scheduler(instrument=prof, compiled=compiled).run(
            prefix_and_cycle(), 20
        )
        assert prof.steps == 20
        assert prof.replayed == 14
        assert prof.phase_calls["apply"] == prof.steps - prof.replayed == 6
        assert prof.phase_calls["replay"] == 1
        doc = prof.summary()
        assert doc["counters"]["replayed"] == 14
        assert doc["counters"]["steps"] == 20

    def test_phases_sum_to_the_loop_wall(self):
        readings = []

        def clock():
            readings.append(float(len(readings)))
            return readings[-1]

        prof = StepProfiler(clock=clock)
        Scheduler(instrument=prof).run(prefix_and_cycle(), 20)
        assert prof.phase_calls["replay"] == 1
        assert prof.phase_wall_s["replay"] > 0
        assert prof.wall_s == readings[-1] - readings[0]

"""Tests for repro.ioa.scheduler: policies, injections, stopping."""

import pytest

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

T1 = Action("t1", 0)
T2 = Action("t2", 1)
IN = Action("in", 0)


def two_task_machine():
    """Counts events of two independent tasks; input `in` is absorbed."""
    return FunctionalAutomaton(
        name="m",
        signature=Signature(
            inputs=FiniteActionSet([IN]),
            outputs=FiniteActionSet([T1, T2]),
        ),
        initial=(0, 0),
        transition=lambda s, a: (
            (s[0] + 1, s[1]) if a == T1
            else (s[0], s[1] + 1) if a == T2
            else s
        ),
        enabled_fn=lambda s: [T1, T2],
        task_names=("one", "two"),
        task_assignment=lambda a: "one" if a == T1 else "two",
    )


def finite_machine(limit=3):
    return FunctionalAutomaton(
        name="f",
        signature=Signature(
            inputs=FiniteActionSet([IN]), outputs=FiniteActionSet([T1])
        ),
        initial=0,
        transition=lambda s, a: s + 1 if a == T1 else s,
        enabled_fn=lambda s: [T1] if s < limit else [],
    )


class TestRoundRobin:
    def test_alternates_tasks(self):
        e = Scheduler(RoundRobinPolicy()).run(two_task_machine(), 6)
        assert list(e.actions) == [T1, T2, T1, T2, T1, T2]

    def test_skips_disabled_tasks(self):
        e = Scheduler(RoundRobinPolicy()).run(finite_machine(2), 10)
        # Quiesces after 2 steps even though max_steps is 10.
        assert list(e.actions) == [T1, T1]

    def test_deterministic_across_runs(self):
        s = Scheduler(RoundRobinPolicy())
        e1 = s.run(two_task_machine(), 10)
        e2 = s.run(two_task_machine(), 10)
        assert list(e1.actions) == list(e2.actions)


class TestRandomPolicy:
    def test_reproducible_with_seed(self):
        e1 = Scheduler(RandomPolicy(seed=42)).run(two_task_machine(), 20)
        e2 = Scheduler(RandomPolicy(seed=42)).run(two_task_machine(), 20)
        assert list(e1.actions) == list(e2.actions)

    def test_different_seeds_differ(self):
        runs = {
            tuple(
                Scheduler(RandomPolicy(seed=s)).run(
                    two_task_machine(), 20
                ).actions
            )
            for s in range(5)
        }
        assert len(runs) > 1

    def test_statistically_fair(self):
        e = Scheduler(RandomPolicy(seed=1)).run(two_task_machine(), 200)
        c1, c2 = e.final_state
        assert c1 > 50 and c2 > 50


class TestAdversarialPolicy:
    def test_adversary_choice_respected(self):
        def always_t2(state, options, step):
            for task, enabled in options:
                if task == "two":
                    return enabled[0]
            return None

        e = Scheduler(AdversarialPolicy(always_t2)).run(
            two_task_machine(), 5
        )
        assert list(e.actions) == [T2] * 5

    def test_fallback_on_abstain(self):
        e = Scheduler(
            AdversarialPolicy(lambda state, options, step: None)
        ).run(two_task_machine(), 4)
        assert len(e) == 4  # round-robin fallback kept things moving

    def test_chooser_receives_current_state(self):
        """Regression: the chooser's first argument is the scheduler's
        *current state*, as the docstring and type annotation promise.
        AdversarialPolicy used to pass the automaton object instead,
        silently breaking every chooser written against the contract."""
        seen = []

        def chooser(state, options, step):
            seen.append(state)
            return None  # abstain: fallback keeps the run moving

        machine = two_task_machine()
        e = Scheduler(AdversarialPolicy(chooser)).run(machine, 4)
        assert len(seen) == 4
        for state in seen:
            assert not isinstance(state, type(machine))
        # The k-th call sees the state the k-th action fires in.
        assert seen == list(e.states[:4])

    def test_chooser_state_tracks_run_progress(self):
        """The adversary can steer based on the state it is handed."""

        def prefer_t1_until_two(state, options, step):
            count_t1, _count_t2 = state
            wanted = "one" if count_t1 < 2 else "two"
            for task, enabled in options:
                if task == wanted:
                    return enabled[0]
            return None

        e = Scheduler(AdversarialPolicy(prefer_t1_until_two)).run(
            two_task_machine(), 5
        )
        assert list(e.actions) == [T1, T1, T2, T2, T2]


class TestInjections:
    def test_injection_fires_at_step(self):
        e = Scheduler().run(
            two_task_machine(),
            4,
            injections=[Injection(2, IN)],
        )
        assert e.actions[2] == IN

    def test_injection_into_quiescent_system(self):
        """Injections fast-forward when nothing else is enabled."""
        e = Scheduler().run(
            finite_machine(1),
            10,
            injections=[Injection(7, IN)],
        )
        assert list(e.actions) == [T1, IN]

    def test_injections_beyond_run_are_dropped(self):
        e = Scheduler().run(
            finite_machine(1), 10, injections=[]
        )
        assert list(e.actions) == [T1]

    def test_unenabled_injection_raises(self):
        bad = Action("not-in-signature", 5)
        with pytest.raises(ValueError):
            Scheduler().run(
                finite_machine(3), 10, injections=[Injection(0, bad)]
            )


class TestStopping:
    def test_stop_when(self):
        e = Scheduler().run(
            finite_machine(10),
            100,
            stop_when=lambda state: state >= 4,
        )
        assert e.final_state == 4

    def test_run_to_quiescence_ok(self):
        e = Scheduler().run_to_quiescence(finite_machine(3), 50)
        assert e.final_state == 3

    def test_run_to_quiescence_raises_when_bound_hit(self):
        with pytest.raises(RuntimeError, match="did not quiesce"):
            Scheduler().run_to_quiescence(two_task_machine(), 10)

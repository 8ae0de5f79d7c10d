"""The step loop's snapshot reuse, by exact ``enabled_by_task`` counts.

``Scheduler.run`` shows its policy a view of the automaton that returns
the previous enabled-by-task snapshot when asked about the state object
it last answered for.  Detector outputs leave the state unchanged, so a
flat detector computes one snapshot per state change, not per step; a
composition's ``apply`` always builds a new tuple, so it computes one
per executed policy turn; and a policy that asks twice in one step gets
the same dict.
"""

from __future__ import annotations

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.detectors.omega import OmegaAutomaton
from repro.faults import FaultPlan
from repro.ioa.composition import Composition, compose
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RoundRobinPolicy,
    Scheduler,
    SchedulerPolicy,
)
from repro.runner import ExperimentSpec, run_spec
from repro.system.crash import CrashAutomaton
from repro.system.fault_pattern import crash_action
from repro.timed.registry import build_automaton

from tests.conftest import fresh_turns

LOCS = (0, 1, 2)


class TurnLog(SchedulerPolicy):
    """Defers to ``inner`` (default round-robin), recording the state
    object of every policy turn."""

    def __init__(self, inner=None):
        self.inner = inner or RoundRobinPolicy()
        self.states = []

    def reset(self):
        self.inner.reset()

    def choose(self, automaton, state, step):
        self.states.append(state)
        return self.inner.choose(automaton, state, step)


def logged_run(automaton, max_steps, injections):
    log = TurnLog()
    execution = Scheduler(log).run(
        automaton, max_steps, injections=injections
    )
    return execution, log.states


class TestFlatDetectorsComputeOncePerStateChange:
    def test_timed_heartbeat(self, snapshot_calls):
        automaton = build_automaton(
            "heartbeat", LOCS, params={"delay": {"jitter": 2}}, seed=5
        )
        execution, turns = logged_run(
            automaton, 600, [Injection(160, crash_action(2))]
        )
        assert len(execution) == 600
        assert len(turns) == 599  # every step but the injected crash
        # Outputs never change the state: only the initial state and
        # the states after ticks and the crash are computed.
        computed = sum(snapshot_calls.values())
        assert computed == fresh_turns(turns) == 188
        assert snapshot_calls["TimedDetectorAutomaton"] == computed

    def test_omega_automaton(self, snapshot_calls):
        crashes = [Injection(5, crash_action(0)), Injection(9, crash_action(2))]
        execution, turns = logged_run(OmegaAutomaton(LOCS), 30, crashes)
        assert len(turns) == 28
        # Outputs never change the crashset: the initial state and the
        # state after each crash are the only ones computed.
        assert snapshot_calls["Automaton"] == fresh_turns(turns) == 3
        assert sum(snapshot_calls.values()) == 3


def chaos_spec():
    """Consensus over lossy channels: the run drives a Composition."""
    return ExperimentSpec(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        proposals={0: 1, 1: 0, 2: 1},
        crashes={0: 10},
        f=1,
        seed=2,
        max_steps=2_000,
        fault_plan=FaultPlan.uniform(drop_p=0.15),
    )


def test_composition_counts_are_unchanged(snapshot_calls):
    """Every composed step builds a new state tuple, so the loop reuses
    nothing: one merge per policy turn, plus the runner's four asks
    outside the loop.  The run closes after 43 executed steps (42 policy
    turns and the injected crash) on the lasso (26, 2); its other 1,957
    steps replay the cycle and ask for no snapshot."""
    result = run_spec(chaos_spec(), keep=True)
    assert result.steps == 2_000
    assert result.run.execution.lasso == (26, 2)
    assert snapshot_calls["Composition"] == 42 + 4


def omega_with_crashes():
    return compose(OmegaAutomaton(LOCS), CrashAutomaton(LOCS))


class SnapshotSpy(SchedulerPolicy):
    """Round-robin that records the snapshot dict it is handed."""

    def __init__(self):
        self.inner = RoundRobinPolicy()
        self.received = []

    def reset(self):
        self.inner.reset()

    def choose(self, automaton, state, step):
        self.received.append(automaton.enabled_by_task(state))
        return self.inner.choose(automaton, state, step)


@pytest.mark.parametrize(
    "make, owner",
    [
        (lambda: OmegaAutomaton(LOCS), OmegaAutomaton),
        (omega_with_crashes, Composition),
    ],
    ids=["flat", "composition"],
)
def test_abstaining_adversary_fallback_gets_the_same_dict(
    monkeypatch, make, owner
):
    computed = []
    original = owner.enabled_by_task

    def recording(self, state):
        snapshot = original(self, state)
        computed.append((state, snapshot))
        return snapshot

    monkeypatch.setattr(owner, "enabled_by_task", recording)
    spy = SnapshotSpy()
    automaton = make()
    crash = crash_action(1)
    policy = AdversarialPolicy(lambda state, options, step: None, spy)
    execution = Scheduler(policy).run(
        automaton, 12, injections=[Injection(4, crash)]
    )
    assert len(execution) == 12
    assert len(spy.received) == 11
    # The adversary's ask computed each turn's snapshot; the fallback's
    # re-ask got that very dict.
    turns = [
        state for k, state in enumerate(execution.states[:-1])
        if execution.actions[k] != crash
    ]
    assert len(computed) == fresh_turns(turns)
    by_state = {id(state): snapshot for state, snapshot in computed}
    for state, received in zip(turns, spy.received):
        assert received is by_state[id(state)]

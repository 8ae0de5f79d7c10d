"""Compiled-vs-interpreted equivalence: the oracle property.

The interpreted :class:`~repro.ioa.scheduler.Scheduler` loop is the
specification; the compiled array loop must reproduce its executions
*byte-identically* — same actions, same states, same stop reason — for
every policy, injection schedule and fault plan.  These tests drive both
paths over the same inputs and diff the full executions.
"""

from __future__ import annotations

import copy
import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.compiled.loop import policy_for
from repro.compiled.tables import compile_automaton
from repro.detectors.registry import resolve_detector
from repro.faults.plan import ChannelFaults, CrashRule, FaultPlan
from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import Composition, CompositionError
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
)
from repro.ioa.signature import FiniteActionSet, PredicateActionSet, Signature
from repro.problems.bounded import MaskedRoundRobinPolicy
from repro.runner.spec import ExperimentSpec, run_spec
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import crash_action
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2)


def run_both(automaton_factory, policy_factory, max_steps, injections=()):
    """One interpreted and one compiled run over fresh twins."""
    interp = Scheduler(policy_factory(), compiled=False).run(
        automaton_factory(), max_steps=max_steps, injections=injections
    )
    comp = Scheduler(policy_factory(), compiled=True).run(
        automaton_factory(), max_steps=max_steps, injections=injections
    )
    return interp, comp


def assert_executions_identical(interp, comp):
    assert list(interp.actions) == list(comp.actions)
    assert list(interp.states) == list(comp.states)


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("detector", ["omega", "evp", "perfect", "sigma"])
    @pytest.mark.parametrize(
        "policy_factory",
        [RoundRobinPolicy, lambda: RandomPolicy(seed=42)],
        ids=["round-robin", "random"],
    )
    def test_detector_automata(self, detector, policy_factory):
        factory = lambda: resolve_detector(detector, LOCS).automaton()
        interp, comp = run_both(factory, policy_factory, max_steps=200)
        assert_executions_identical(interp, comp)

    @pytest.mark.parametrize(
        "policy_factory",
        [RoundRobinPolicy, lambda: RandomPolicy(seed=7)],
        ids=["round-robin", "random"],
    )
    def test_with_crash_injections(self, policy_factory):
        factory = lambda: resolve_detector("evp", LOCS).automaton()
        injections = [
            Injection(step=10, action=crash_action(2)),
            Injection(step=40, action=crash_action(0)),
        ]
        interp, comp = run_both(
            factory, policy_factory, max_steps=150, injections=injections
        )
        assert_executions_identical(interp, comp)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        max_steps=st.integers(min_value=1, max_value=120),
        crash_step=st.integers(min_value=0, max_value=60),
    )
    def test_random_policy_property(self, seed, max_steps, crash_step):
        factory = lambda: resolve_detector("omega", LOCS).automaton()
        injections = [Injection(step=crash_step, action=crash_action(1))]
        interp, comp = run_both(
            lambda: factory(),
            lambda: RandomPolicy(seed=seed),
            max_steps=max_steps,
            injections=injections,
        )
        assert_executions_identical(interp, comp)


def consensus_system():
    """A fresh omega-consensus composition (channels, crash automaton,
    detector and environment included)."""
    return (
        SystemBuilder(LOCS)
        .with_algorithm(omega_consensus_algorithm(LOCS))
        .with_failure_detector(resolve_detector("omega", LOCS).automaton())
        .with_environment(ScriptedConsensusEnvironment({0: 0, 1: 1, 2: 1}))
        .build()
        .composition
    )


def evp_detector():
    return resolve_detector("evp", LOCS).automaton()


AUTOMATA = pytest.mark.parametrize(
    "automaton_factory",
    [evp_detector, consensus_system],
    ids=["detector", "composition"],
)
CRASHES = [
    Injection(step=12, action=crash_action(2)),
    Injection(step=30, action=crash_action(0)),
]


class ChooserLog:
    """An adversary's chooser that records every call; it picks the
    greatest action of the last enabled task every ``every`` steps and
    abstains otherwise (``every=0``: always abstains)."""

    def __init__(self, every: int):
        self.every = every
        self.calls = []

    def __call__(self, state, options, step):
        self.calls.append((state, list(options), step))
        if self.every and step % self.every == 0:
            return max(options[-1][1])
        return None


class RoundRobinSubclass(RoundRobinPolicy):
    """Identical behaviour, different type: runs as a generic policy
    against the compiled core, not as the round-robin twin."""


class TestPolicyPaths:
    """Every way a compiled run can choose: the three twins, a generic
    policy reading the core like any automaton, and a ``start=`` state
    the core has not handed out."""

    @AUTOMATA
    @pytest.mark.parametrize("every", [0, 3], ids=["abstaining", "choosing"])
    def test_adversarial_policy(self, automaton_factory, every):
        interp_log, comp_log = ChooserLog(every), ChooserLog(every)
        interp = Scheduler(AdversarialPolicy(interp_log), compiled=False).run(
            automaton_factory(), max_steps=150, injections=CRASHES
        )
        comp = Scheduler(AdversarialPolicy(comp_log), compiled=True).run(
            automaton_factory(), max_steps=150, injections=CRASHES
        )
        assert_executions_identical(interp, comp)
        # The chooser saw the same states, options lists and steps.
        assert comp_log.calls == interp_log.calls
        assert len(comp_log.calls) > 100

    @AUTOMATA
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: MaskedRoundRobinPolicy(lambda task: not task.endswith("[1]")),
            RoundRobinSubclass,
        ],
        ids=["masked", "round-robin-subclass"],
    )
    def test_generic_policy_over_the_core(
        self, automaton_factory, policy_factory
    ):
        core = compile_automaton(automaton_factory())
        policy = policy_factory()
        assert policy_for(core, policy) is policy
        interp, comp = run_both(
            automaton_factory, policy_factory, max_steps=150,
            injections=CRASHES,
        )
        assert_executions_identical(interp, comp)

    @AUTOMATA
    @pytest.mark.parametrize(
        "policy_factory",
        [RoundRobinPolicy, lambda: RandomPolicy(seed=5), RoundRobinSubclass],
        ids=["round-robin", "random", "round-robin-subclass"],
    )
    def test_start_state(self, automaton_factory, policy_factory):
        # An equal-by-value copy of a reachable state: the compiled
        # core has never handed out this object.
        reached = Scheduler(compiled=False).run(
            automaton_factory(), max_steps=25, injections=CRASHES[:1]
        ).final_state
        executions = [
            Scheduler(policy_factory(), compiled=compiled).run(
                automaton_factory(),
                max_steps=60,
                injections=CRASHES[1:],
                start=copy.deepcopy(reached),
            )
            for compiled in (False, True)
        ]
        assert_executions_identical(*executions)
        assert executions[0].states[0] == reached

    @AUTOMATA
    def test_reused_round_robin_policy_keeps_its_cursor(
        self, automaton_factory
    ):
        cursors = {}
        for compiled in (False, True):
            policy = RoundRobinPolicy()
            scheduler = Scheduler(policy, compiled=compiled)
            automaton = automaton_factory()
            cursors[compiled] = []
            for max_steps in (37, 52):
                scheduler.run(automaton, max_steps=max_steps)
                cursors[compiled].append(policy._cursor)
        assert cursors[True] == cursors[False]
        assert any(cursors[False])


def spec_pair(spec):
    """Run ``spec`` interpreted and compiled; return both results."""
    interp = run_spec(dataclasses.replace(spec, compiled=False))
    comp = run_spec(dataclasses.replace(spec, compiled=True))
    return interp, comp


def assert_results_identical(interp, comp):
    """Every deterministic ExperimentResult field agrees (wall time
    legitimately differs)."""
    for f in dataclasses.fields(interp):
        if f.name in ("wall_s", "run"):
            continue
        assert getattr(interp, f.name) == getattr(comp, f.name), f.name


CONSENSUS_SPEC = ExperimentSpec(
    detector="omega",
    algorithm=omega_consensus_algorithm,
    locations=LOCS,
    proposals={0: 0, 1: 1, 2: 1},
    crashes={0: 40},
    f=1,
    max_steps=3000,
)


class TestSpecEquivalence:
    def test_consensus(self):
        assert_results_identical(*spec_pair(CONSENSUS_SPEC))

    def test_consensus_instrumented_traces(self):
        spec = dataclasses.replace(CONSENSUS_SPEC, instrument=True)
        interp, comp = spec_pair(spec)
        assert interp.trace == comp.trace
        assert interp.decisions == comp.decisions

    def test_detector_trace(self):
        spec = ExperimentSpec(
            problem="detector-trace",
            detector="evp",
            locations=(0, 1),
            crashes={1: 25},
            f=1,
            max_steps=400,
            seed=7,
        )
        assert_results_identical(*spec_pair(spec))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_seed_sweep(self, seed):
        spec = dataclasses.replace(CONSENSUS_SPEC, seed=seed)
        assert_results_identical(*spec_pair(spec))

    def test_fault_plan(self):
        plan = FaultPlan(
            default=ChannelFaults(duplicate_p=0.2, drop_p=0.1),
            crash_rules=(CrashRule(trigger="on-first-fd-output", delay=2),),
        )
        spec = dataclasses.replace(
            CONSENSUS_SPEC, crashes={}, fault_plan=plan, seed=13
        )
        assert_results_identical(*spec_pair(spec))


class TestDelegateEquivalence:
    """run_consensus_experiment is a thin delegate over run_spec."""

    def test_matches_spec_run(self):
        afd = resolve_detector("omega", LOCS)
        alg = omega_consensus_algorithm(LOCS)
        via_delegate = run_consensus_experiment(
            alg, afd, {0: 0, 1: 1, 2: 1}, {0: 40}, f=1, max_steps=3000
        )
        via_spec = run_spec(CONSENSUS_SPEC, keep=True).run
        assert via_delegate.decisions == via_spec.decisions
        assert via_delegate.steps == via_spec.steps
        assert list(via_delegate.execution.actions) == list(
            via_spec.execution.actions
        )
        assert via_delegate.fd_check.ok == via_spec.fd_check.ok
        assert via_delegate.consensus_check.ok == via_spec.consensus_check.ok

    def test_compiled_flag_passes_through(self):
        afd = resolve_detector("omega", LOCS)
        alg = omega_consensus_algorithm(LOCS)
        interp = run_consensus_experiment(
            alg, afd, {0: 0, 1: 1, 2: 1}, {0: 40}, f=1, compiled=False
        )
        comp = run_consensus_experiment(
            alg, afd, {0: 0, 1: 1, 2: 1}, {0: 40}, f=1, compiled=True
        )
        assert interp.decisions == comp.decisions
        assert interp.steps == comp.steps
        assert list(interp.execution.actions) == list(comp.execution.actions)


class TestFirstSightingErrors:
    """An error on a first sighting leaves nothing half-registered in
    the tables, so every later run raises it again."""

    SHARED = Action("shared", 0)

    def claimer(self, name, enables):
        shared = self.SHARED
        return FunctionalAutomaton(
            name=name,
            signature=Signature(
                outputs=PredicateActionSet(
                    lambda a: a.name == "shared", "shared claimer"
                )
            ),
            initial=0,
            transition=lambda s, a: s,
            enabled_fn=(lambda s: [shared]) if enables else (lambda s: []),
        )

    @pytest.mark.parametrize("compiled", [False, True])
    def test_every_run_raises_the_interpreted_error(self, compiled):
        # Predicate signatures escape the constructor's enumerable
        # check; the first sighting of shared()_0 is in a snapshot.
        composition = Composition(
            [self.claimer("left", True), self.claimer("right", False)]
        )
        message = re.escape(
            f"action {self.SHARED} is locally controlled by several "
            "components: ['left', 'right']"
        )
        for _ in range(2):
            with pytest.raises(CompositionError, match=message):
                Scheduler(compiled=compiled).run(composition, 5)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_a_failing_snapshot_raises_on_every_run(self, compiled):
        def enabled(state):
            if state == 1:
                raise ValueError("no snapshot for state 1")
            return [self.SHARED]

        automaton = FunctionalAutomaton(
            name="m",
            signature=Signature(outputs=FiniteActionSet([self.SHARED])),
            initial=0,
            transition=lambda s, a: s + 1,
            enabled_fn=enabled,
        )
        for _ in range(2):
            with pytest.raises(ValueError, match="state 1"):
                Scheduler(compiled=compiled).run(automaton, 5)

"""Property tests of the composition's key index (:mod:`repro.ioa.composition`).

A dispatch miss probes only the components whose signature sets declare
the action's ``(name, location)`` pair, plus every component with an
undeclared set.  That is sound only if each declaration is a superset of
its members' keys.  Over every algorithm factory :mod:`repro.algorithms`
exports, composed with the detector it is written for, and every
registered reduction's witness over its source detector, on reliable
channels and on chaos channels that drop, duplicate, reorder or delay,
every action of a seeded random execution must

* dispatch exactly as a full scan of all components does, and
* carry a key listed by every declared set that holds it.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.algorithms as algorithms
from repro.algorithms.atomic_commit import nbac_algorithm
from repro.algorithms.completeness_boost import completeness_boost_algorithm
from repro.algorithms.consensus_ct import ct_consensus_algorithm
from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.algorithms.consensus_tree import tree_consensus_algorithm
from repro.algorithms.kset_floodmin import floodmin_algorithm
from repro.algorithms.leader_election import leader_election_algorithm
from repro.algorithms.participant_consensus import (
    consensus_from_participant_algorithm,
    participant_from_consensus_algorithm,
)
from repro.algorithms.relay import relay_algorithm
from repro.algorithms.trb_flooding import trb_flooding_algorithm
from repro.algorithms.urb import urb_algorithm
from repro.core.self_implementation import self_implementation_algorithm
from repro.detectors.omega import Omega
from repro.detectors.participant import ParticipantDetectorAutomaton, query_action
from repro.detectors.perfect import Perfect
from repro.detectors.registry import known_reductions
from repro.detectors.strong import EventuallyStrong
from repro.detectors.weak import Quasi
from repro.faults import FaultPlan
from repro.faults.channels import make_faulty_channels
from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, RandomPolicy, Scheduler
from repro.ioa.signature import PredicateActionSet, Signature, UnionActionSet
from repro.problems.atomic_commit import YES, vote_action
from repro.problems.reliable_broadcast import bcast_action
from repro.problems.uniform_broadcast import urb_bcast_action
from repro.system.channel import make_channels, receive_action, send_action
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern, crash_action
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2)
PROPOSALS = {0: 1, 1: 0, 2: 1}


def _leader(action):
    suspects = set(action.payload[0])
    return Action("fd-omega", action.location, (min(set(LOCS) - suspects),))


def _env():
    return ScriptedConsensusEnvironment(PROPOSALS)


#: algorithm factory name -> () -> (automata besides the channels and the
#: crash automaton, injected actions).  Each factory runs with the
#: detector it is written for; layered algorithms run over their consensus box.
SYSTEMS = {
    "perfect_consensus_algorithm": lambda: (
        [*perfect_consensus_algorithm(LOCS).automata(),
         Perfect(LOCS).automaton(), _env()],
        [],
    ),
    "omega_consensus_algorithm": lambda: (
        [*omega_consensus_algorithm(LOCS).automata(),
         Omega(LOCS).automaton(), _env()],
        [],
    ),
    "ct_consensus_algorithm": lambda: (
        [*ct_consensus_algorithm(LOCS).automata(),
         EventuallyStrong(LOCS).automaton(), _env()],
        [],
    ),
    "tree_consensus_algorithm": lambda: (
        [*tree_consensus_algorithm(LOCS).automata(),
         Perfect(LOCS).automaton(), _env()],
        [],
    ),
    "floodmin_algorithm": lambda: (
        [*floodmin_algorithm(LOCS, k=1, f=1).automata(),
         Perfect(LOCS).automaton(), _env()],
        [],
    ),
    "trb_flooding_algorithm": lambda: (
        [*trb_flooding_algorithm(LOCS, sender=0, f=1).automata(),
         Perfect(LOCS).automaton()],
        [bcast_action(0, "m")],
    ),
    "urb_algorithm": lambda: (
        list(urb_algorithm(LOCS).automata()),
        [urb_bcast_action(0, "m"), urb_bcast_action(2, "n")],
    ),
    "leader_election_algorithm": lambda: (
        [*leader_election_algorithm(LOCS).automata(),
         *perfect_consensus_algorithm(LOCS, values=LOCS).automata(),
         Perfect(LOCS).automaton()],
        [],
    ),
    "nbac_algorithm": lambda: (
        [*nbac_algorithm(LOCS).automata(),
         *perfect_consensus_algorithm(LOCS).automata(),
         Perfect(LOCS).automaton()],
        [vote_action(i, YES) for i in LOCS],
    ),
    "consensus_from_participant_algorithm": lambda: (
        [*consensus_from_participant_algorithm(LOCS).automata(),
         ParticipantDetectorAutomaton(LOCS), _env()],
        [],
    ),
    "participant_from_consensus_algorithm": lambda: (
        [*participant_from_consensus_algorithm(LOCS).automata(),
         *perfect_consensus_algorithm(LOCS, values=LOCS).automata(),
         Perfect(LOCS).automaton()],
        [query_action(i) for i in LOCS],
    ),
    "relay_algorithm": lambda: (
        [*relay_algorithm(Perfect(LOCS), Omega(LOCS), lambda i: _leader)
         .automata(),
         Perfect(LOCS).automaton()],
        [],
    ),
    "completeness_boost_algorithm": lambda: (
        [*completeness_boost_algorithm(Quasi(LOCS), Perfect(LOCS)).automata(),
         Quasi(LOCS).automaton()],
        [],
    ),
    "self_implementation_algorithm": lambda: (
        [*self_implementation_algorithm(Omega(LOCS))[0].automata(),
         Omega(LOCS).automaton()],
        [],
    ),
}

# Every registered reduction's witness, over its source detector.
for _reduction in known_reductions():
    SYSTEMS[_reduction.name] = lambda r=_reduction: (
        [*r.algorithm_factory(LOCS).automata(), r.source_factory(LOCS).automaton()],
        [],
    )

PLANS = {
    "reliable": None,
    "drop": FaultPlan.uniform(seed=1, drop_p=0.3),
    "duplicate": FaultPlan.uniform(seed=2, duplicate_p=0.3),
    "reorder": FaultPlan.uniform(seed=3, reorder_p=0.5),
    "delay": FaultPlan.uniform(seed=4, delay_p=0.5, max_delay=3),
}


def test_every_exported_algorithm_factory_is_covered():
    exported = {name for name in algorithms.__all__ if name.endswith("_algorithm")}
    assert exported <= set(SYSTEMS)


def build(system_name, plan_name):
    automata, injected = SYSTEMS[system_name]()
    plan = PLANS[plan_name]
    channels = make_channels(LOCS) if plan is None else make_faulty_channels(LOCS, plan)
    composition = Composition(automata + channels + [CrashAutomaton(LOCS)])
    return composition, injected


def full_scan(composition, action):
    """The reference dispatch: every component's three signature sets,
    in component order, with no index."""
    owners, participants = [], []
    for k, component in enumerate(composition.components):
        signature = component.signature
        if action in signature.outputs or action in signature.internals:
            owners.append(k)
            participants.append(k)
        elif action in signature.inputs:
            participants.append(k)
    assert len(owners) <= 1, (action, owners)
    return (owners[0] if owners else None, tuple(participants))


def action_sets(automaton):
    """Every action set an automaton's signature is built from, the
    parts of unions and of nested compositions included."""
    stack = [automaton]
    while stack:
        current = stack.pop()
        if isinstance(current, Composition):
            stack.extend(current.components)
        signature = current.signature
        sets = [signature.inputs, signature.outputs, signature.internals]
        while sets:
            action_set = sets.pop()
            yield action_set
            if isinstance(action_set, UnionActionSet):
                sets.extend(action_set.parts)


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    crash=st.one_of(st.none(), st.tuples(st.sampled_from(LOCS), st.integers(0, 40))),
)
def test_index_dispatches_like_a_full_scan(system_name, plan_name, seed, crash):
    composition, injected = build(system_name, plan_name)
    injections = [Injection(k, action) for k, action in enumerate(injected)]
    if crash is not None:
        injections += FaultPattern({crash[0]: crash[1]}, LOCS).injections()
    execution = Scheduler(RandomPolicy(seed=seed)).run(
        composition, max_steps=150, injections=injections
    )
    declared = [s for s in action_sets(composition) if s.keys() is not None]
    for action in set(execution.actions):
        assert composition._dispatch(action) == full_scan(composition, action)
        key = (action.name, action.location)
        for action_set in declared:
            if action in action_set:
                assert key in action_set.keys(), (action, action_set)


def test_candidates_of_a_send_in_a_five_location_chaos_system():
    locations = tuple(range(5))
    system = (
        SystemBuilder(locations)
        .with_algorithm(omega_consensus_algorithm(locations))
        .with_failure_detector(Omega(locations).automaton())
        .with_environment(
            ScriptedConsensusEnvironment({i: i % 2 for i in locations})
        )
        .with_fault_plan(FaultPlan.uniform(seed=0, drop_p=0.1))
        .build()
    )
    composition = system.composition
    names = [
        composition.components[k].name
        for k in composition._candidates(send_action(0, "m", 3))
    ]
    assert names == [
        "consOmega[0]",
        "chan[0->1]",
        "chan[0->2]",
        "chan[0->3]",
        "chan[0->4]",
    ]


def test_an_undeclared_component_is_a_candidate_for_every_key():
    ping = Action("ping", 0)
    listener = FunctionalAutomaton(
        name="listener",
        signature=Signature(
            inputs=PredicateActionSet(lambda a: a.name == "ping", "pings")
        ),
        initial=0,
        transition=lambda s, a: s + 1,
        enabled_fn=lambda s: [],
    )
    composition = Composition(
        make_channels((0, 1)) + [CrashAutomaton((0, 1)), listener]
    )
    last = len(composition.components) - 1
    # A key no declared set lists probes the undeclared component alone.
    assert composition._candidates(ping) == (last,)
    for action in (ping, send_action(0, "m", 1), Action("crash", 1)):
        assert composition._candidates(action)[-1] == last
        assert composition._dispatch(action) == full_scan(composition, action)


def test_a_nested_composition_declares_its_components_input_keys():
    inner = Composition(make_channels((0, 1)), name="inner")
    outer = Composition([inner, CrashAutomaton((0, 1))])
    assert inner.signature.inputs.keys() == {("send", 0), ("send", 1)}
    for action in (
        send_action(0, "m", 1),
        receive_action(1, "m", 0),
        crash_action(0),
        Action("ping", 0),
    ):
        assert outer._dispatch(action) == full_scan(outer, action)
    assert outer._candidates(send_action(0, "m", 1)) == (0,)

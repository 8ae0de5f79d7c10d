"""Property tests for FaultPlan and the zero-fault identity.

The load-bearing property: a chaos system whose plan draws only
zero-probability faults produces a trace *byte-identical* to the same
system over reliable channels — the chaos machinery is a strict
superset, not a parallel implementation that merely agrees on averages.
The remaining properties pin the plan's value semantics: pickling,
hashing, seed binding and derivation are all stable and deterministic.
"""

from __future__ import annotations

import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.detectors.registry import resolve_detector
from repro.faults.channels import make_faulty_channels
from repro.faults.plan import ChannelFaults, FaultPlan
from repro.ioa.composition import Composition
from repro.runner.seeds import derive_seed
from repro.runner.spec import encode_key
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.network import System

from .strategies import fault_plans

LOCATIONS = (0, 1, 2)


def build_system(proposals, channels):
    """Mirror SystemBuilder.build() but with the given channel automata,
    so reliable and (inert) chaos channels can be compared head-to-head
    without the builder's channels_inert shortcut kicking in."""
    algorithm = omega_consensus_algorithm(LOCATIONS)
    afd = resolve_detector("omega", LOCATIONS)
    fd = afd.automaton()
    env = ScriptedConsensusEnvironment(proposals)
    crash = CrashAutomaton(LOCATIONS)
    components = list(algorithm.automata()) + list(channels)
    components += [crash, fd, env]
    return System(
        composition=Composition(components, name="system"),
        locations=LOCATIONS,
        algorithm=algorithm,
        channels=list(channels),
        crash=crash,
        failure_detector=fd,
        environment=env,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    proposals=st.tuples(*[st.integers(0, 1) for _ in LOCATIONS]),
)
def test_inert_chaos_channels_are_byte_identical_to_reliable(
    seed, proposals
):
    proposals = dict(zip(LOCATIONS, proposals))
    plan = FaultPlan(seed=seed)  # bound, all-zero faults
    reliable = build_system(proposals, make_channels(LOCATIONS))
    chaotic = build_system(
        proposals, make_faulty_channels(LOCATIONS, plan)
    )
    ex_r = reliable.run(max_steps=400)
    ex_c = chaotic.run(max_steps=400)
    assert list(ex_r.actions) == list(ex_c.actions)
    lines_r = [json.dumps(repr(a), sort_keys=True) for a in ex_r.actions]
    lines_c = [json.dumps(repr(a), sort_keys=True) for a in ex_c.actions]
    assert lines_r == lines_c  # identical down to the serialized bytes


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans())
def test_fault_plan_pickle_round_trip(plan):
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert hash(clone) == hash(plan)
    assert encode_key(clone) == encode_key(plan)


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans(bound=True), s=st.integers(0, 10), d=st.integers(0, 10))
def test_channel_seed_is_derive_seed_of_coordinates(plan, s, d):
    assert plan.channel_seed(s, d) == derive_seed(plan.seed, "chan", s, d)
    # Stable: same call, same answer; distinct channels, distinct seeds.
    assert plan.channel_seed(s, d) == plan.channel_seed(s, d)
    if s != d:
        assert plan.channel_seed(s, d) != plan.channel_seed(d, s)


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans(bound=False), seed=st.integers(0, 2**31))
def test_bound_fills_seed_and_changes_nothing_else(plan, seed):
    bound = plan.bound(seed)
    assert bound.is_bound and bound.seed == seed
    assert bound.default == plan.default
    assert bound.per_channel == plan.per_channel
    assert bound.crash_rules == plan.crash_rules
    # Binding a bound plan is a no-op, not a re-bind.
    assert bound.bound(seed + 1) is bound


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans(bound=True))
def test_derive_is_deterministic_and_injective_in_components(plan):
    assert plan.derive("x") == plan.derive("x")
    assert plan.derive("x").seed != plan.derive("y").seed
    assert plan.derive("x").seed == derive_seed(plan.seed, "x")


@settings(max_examples=50, deadline=None)
@given(plan=fault_plans(zero_probability=True, allow_crash_rules=False))
def test_zero_probability_plans_are_channel_inert(plan):
    assert plan.channels_inert
    assert plan.is_inert


def test_per_channel_normalization_is_order_independent():
    a = ChannelFaults(drop_p=0.5)
    b = ChannelFaults(duplicate_p=0.5)
    p1 = FaultPlan(seed=1, per_channel={(0, 1): a, (1, 0): b})
    p2 = FaultPlan(seed=1, per_channel=[((1, 0), b), ((0, 1), a)])
    assert p1 == p2
    assert hash(p1) == hash(p2)
    assert p1.for_channel(0, 1) == a
    assert p1.for_channel(1, 0) == b
    assert p1.for_channel(2, 0) == p1.default

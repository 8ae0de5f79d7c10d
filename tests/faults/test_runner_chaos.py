"""Chaos through the experiment engine: spec plumbing, sweep axis,
serial/parallel byte-determinism, and crash-rule integration.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.omega import Omega
from repro.faults.plan import ChannelFaults, CrashRule, FaultPlan
from repro.runner.batch import BatchRunner
from repro.runner.seeds import derive_seed
from repro.runner.spec import ExperimentSpec, run_spec
from repro.runner.sweep import sweep
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


def base_spec(**overrides):
    kwargs = dict(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        proposals={0: 1, 1: 0, 2: 1},
        f=1,
        seed=11,
        max_steps=20_000,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


# -- Spec plumbing -----------------------------------------------------------


def test_fault_plan_rejected_for_detector_trace_problem():
    with pytest.raises(ValueError, match="consensus"):
        ExperimentSpec(
            detector="omega",
            locations=LOCS,
            problem="detector-trace",
            fault_plan=FaultPlan.uniform(drop_p=0.1),
        )


def test_unbound_plan_is_bound_to_run_seed_derivation():
    spec = base_spec(fault_plan=FaultPlan.uniform(drop_p=0.1))
    resolved = spec.resolve_fault_plan()
    assert resolved.is_bound
    assert resolved.seed == derive_seed(spec.seed, "fault-plan")
    # A bound plan passes through untouched.
    pinned = FaultPlan.uniform(drop_p=0.1, seed=99)
    assert base_spec(fault_plan=pinned).resolve_fault_plan() is pinned
    assert base_spec().resolve_fault_plan() is None


def test_meta_carries_fault_plan_summary():
    spec = base_spec(
        fault_plan=FaultPlan.uniform(drop_p=0.25, seed=4)
    )
    meta = spec.meta()
    assert meta["fault_plan"]["seed"] == 4
    assert meta["fault_plan"]["default"] == {
        "drop_p": 0.25,
        "duplicate_p": 0.0,
        "reorder_p": 0.0,
        "delay_p": 0.0,
        "max_delay": 0,
        "drop_sends": [],
        "duplicate_sends": [],
        "reorder_sends": [],
    }
    assert base_spec().meta()["fault_plan"] is None


# -- The sweep axis ----------------------------------------------------------


def test_sweep_without_fault_plans_keeps_pre_chaos_seed_formula():
    base = base_spec()
    variants = sweep(base, seeds=3, fault_patterns=[{}, {0: 5}])
    expected = [
        derive_seed(base.seed, 0, pi, si)
        for pi in range(2)
        for si in range(3)
    ]
    assert [v.seed for v in variants] == expected
    assert all(v.fault_plan is None for v in variants)
    assert all("|ch" not in v.label for v in variants)


def test_sweep_fault_plans_axis_expands_and_labels():
    base = base_spec()
    plans = [None, FaultPlan.uniform(drop_p=0.1)]
    variants = sweep(base, seeds=2, fault_plans=plans)
    assert len(variants) == 4
    assert [v.fault_plan for v in variants] == [
        None, None, plans[1], plans[1]
    ]
    assert [v.seed for v in variants] == [
        derive_seed(base.seed, 0, 0, "fpl", fi, si)
        for fi in range(2)
        for si in range(2)
    ]
    assert ["|ch0" in v.label for v in variants] == [
        True, True, False, False
    ]
    assert ["|ch1" in v.label for v in variants] == [
        False, False, True, True
    ]
    assert len({v.seed for v in variants}) == 4


def test_sweep_seeds_vary_unbound_plan_schedules():
    base = base_spec(fault_plan=FaultPlan.uniform(drop_p=0.5))
    variants = sweep(base, seeds=3)
    bound = [v.resolve_fault_plan().seed for v in variants]
    assert len(set(bound)) == 3  # a seed sweep sweeps fault schedules


# -- Byte-determinism serial vs parallel -------------------------------------


@pytest.mark.usefixtures("fan_out_everything")
def test_chaos_batch_is_identical_serial_vs_parallel():
    base = base_spec(instrument=True)
    specs = sweep(
        base,
        seeds=2,
        fault_plans=[
            FaultPlan.uniform(duplicate_p=0.3, reorder_p=0.3),
            FaultPlan.uniform(drop_p=0.15),
        ],
    )
    serial = BatchRunner(jobs=1).run(specs)
    parallel = BatchRunner(jobs=2).run(specs)
    for a, b in zip(serial, parallel):
        assert a.label == b.label
        assert a.seed == b.seed
        assert a.solved == b.solved
        assert a.steps == b.steps
        assert a.messages_sent == b.messages_sent
        assert a.decisions == b.decisions
        assert a.trace == b.trace  # canonical JSONL, byte for byte


# -- Crash rules end to end --------------------------------------------------


def test_leader_crash_rule_fires_and_is_reported():
    plan = FaultPlan(
        seed=3, crash_rules=(CrashRule("on-first-fd-output"),)
    )
    result = run_consensus_experiment(
        omega_consensus_algorithm(LOCS),
        Omega(LOCS),
        proposals={0: 1, 1: 0, 2: 1},
        fault_pattern=FaultPattern({}, LOCS),
        f=1,
        max_steps=20_000,
        fault_plan=plan,
    )
    assert len(result.injected_crashes) == 1
    step, target, rule = result.injected_crashes[0]
    assert rule.trigger == "on-first-fd-output"
    # The crashed location is the first elected leader, and the run's
    # trace actually contains its crash event.
    crash_events = [
        a for a in result.execution.actions if a.name == "crash"
    ]
    assert [a.location for a in crash_events] == [target]
    # Omega (with the crashed leader excluded from live) may still be
    # conformant; the run must at least be judged, not wedged.
    assert result.steps > 0


def test_at_step_rule_matches_fault_pattern_semantics():
    plan = FaultPlan(
        seed=0,
        crash_rules=(CrashRule("at-step", location=2, param=6),),
    )
    via_rule = run_consensus_experiment(
        omega_consensus_algorithm(LOCS),
        Omega(LOCS),
        proposals={0: 1, 1: 0, 2: 1},
        fault_pattern=FaultPattern({}, LOCS),
        f=1,
        max_steps=20_000,
        fault_plan=plan,
    )
    assert via_rule.injected_crashes
    assert via_rule.injected_crashes[0][1] == 2
    crashed = [
        a.location for a in via_rule.execution.actions if a.name == "crash"
    ]
    assert crashed == [2]
    assert via_rule.solved


def test_spec_run_with_chaos_plan_round_trips_through_engine():
    spec = base_spec(
        fault_plan=FaultPlan.uniform(duplicate_p=0.4, reorder_p=0.2),
        seed=7,
    )
    r1 = spec.run()
    r2 = spec.run()
    assert r1.ok and r2.ok
    assert (r1.solved, r1.steps, r1.messages_sent) == (
        r2.solved,
        r2.steps,
        r2.messages_sent,
    )


# -- Pinned crash-rule runs --------------------------------------------------

#: Every trigger, with and without a target location and a delay.
PINNED_RULES = {
    "at-step": CrashRule("at-step", location=1, param=5),
    "fd-output": CrashRule("on-first-fd-output"),
    "fd-output+delay": CrashRule("on-first-fd-output", delay=3),
    "fd-output@0": CrashRule("on-first-fd-output", location=0),
    "fd-output@0+delay": CrashRule(
        "on-first-fd-output", location=0, delay=3
    ),
    "decision": CrashRule("on-first-decision"),
    "decision@2+delay": CrashRule("on-first-decision", location=2, delay=3),
    "send-count@0": CrashRule("on-send-count", location=0, param=2),
    "send-count@1+delay": CrashRule(
        "on-send-count", location=1, param=3, delay=4
    ),
}

CONSENSUS_ALGORITHMS = {
    "omega": omega_consensus_algorithm,
    "p": perfect_consensus_algorithm,
}


def crash_rule_spec(rule, detector, drop_p, policy, compiled=None):
    """One instrumented consensus run under a single crash rule."""
    return ExperimentSpec(
        algorithm=CONSENSUS_ALGORITHMS[detector],
        detector=detector,
        locations=LOCS,
        seed=3,
        policy=policy,
        max_steps=3000,
        instrument=True,
        compiled=compiled,
        fault_plan=FaultPlan(
            seed=5,
            default=ChannelFaults(drop_p=drop_p),
            crash_rules=(rule,),
        ),
    )


def fired_pairs(result):
    return tuple((step, loc) for step, loc, _rule in result.run.injected_crashes)


def trace_digest(result):
    return hashlib.sha256("\n".join(result.trace).encode()).hexdigest()[:16]


#: (rule, detector, drop_p, policy) -> (the fired (step, location)
#: pairs, the sha256 prefix of the canonical trace).  Both engines must
#: reproduce each entry.  P with an unlocated fd-output rule is absent:
#: its target is a suspect set, which the bugfix tests below reject.
CRASH_RULE_PINS = {
    ('at-step', 'omega', 0.0, 'round-robin'): (((5, 1),), '92fdd166d3e9cc25'),
    ('at-step', 'omega', 0.0, 'random'): (((5, 1),), 'd6faf1d56936afc4'),
    ('at-step', 'omega', 0.2, 'round-robin'): (((5, 1),), '92fdd166d3e9cc25'),
    ('at-step', 'omega', 0.2, 'random'): (((5, 1),), 'd6faf1d56936afc4'),
    ('at-step', 'p', 0.0, 'round-robin'): (((5, 1),), 'a04652482c27188f'),
    ('at-step', 'p', 0.0, 'random'): (((5, 1),), 'c0bdf78bcedaf49c'),
    ('at-step', 'p', 0.2, 'round-robin'): (((5, 1),), 'a04652482c27188f'),
    ('at-step', 'p', 0.2, 'random'): (((5, 1),), 'c0bdf78bcedaf49c'),
    ('fd-output', 'omega', 0.0, 'round-robin'): (((1, 0),), '250eb7d1aced6a81'),
    ('fd-output', 'omega', 0.0, 'random'): (((1, 0),), 'bd6a17c340045a04'),
    ('fd-output', 'omega', 0.2, 'round-robin'): (((1, 0),), '2efe64ddc1597772'),
    ('fd-output', 'omega', 0.2, 'random'): (((1, 0),), 'b57d2a978ef61d8b'),
    ('fd-output+delay', 'omega', 0.0, 'round-robin'): (((3, 0),), 'b9115f349c5de065'),
    ('fd-output+delay', 'omega', 0.0, 'random'): (((3, 0),), 'c975493a3931a3b2'),
    ('fd-output+delay', 'omega', 0.2, 'round-robin'): (((3, 0),), '0b395130fc570cf2'),
    ('fd-output+delay', 'omega', 0.2, 'random'): (((3, 0),), '18c45f4b53245f96'),
    ('fd-output@0', 'omega', 0.0, 'round-robin'): (((1, 0),), '250eb7d1aced6a81'),
    ('fd-output@0', 'omega', 0.0, 'random'): (((1, 0),), 'bd6a17c340045a04'),
    ('fd-output@0', 'omega', 0.2, 'round-robin'): (((1, 0),), '2efe64ddc1597772'),
    ('fd-output@0', 'omega', 0.2, 'random'): (((1, 0),), 'b57d2a978ef61d8b'),
    ('fd-output@0', 'p', 0.0, 'round-robin'): (((1, 0),), '8a21e22c50f4751c'),
    ('fd-output@0', 'p', 0.0, 'random'): (((1, 0),), '9e96590493a8677d'),
    ('fd-output@0', 'p', 0.2, 'round-robin'): (((1, 0),), '8a21e22c50f4751c'),
    ('fd-output@0', 'p', 0.2, 'random'): (((1, 0),), '9e96590493a8677d'),
    ('fd-output@0+delay', 'omega', 0.0, 'round-robin'): (((3, 0),), 'b9115f349c5de065'),
    ('fd-output@0+delay', 'omega', 0.0, 'random'): (((3, 0),), 'c975493a3931a3b2'),
    ('fd-output@0+delay', 'omega', 0.2, 'round-robin'): (((3, 0),), '0b395130fc570cf2'),
    ('fd-output@0+delay', 'omega', 0.2, 'random'): (((3, 0),), '18c45f4b53245f96'),
    ('fd-output@0+delay', 'p', 0.0, 'round-robin'): (((3, 0),), 'd3ca6c628f5db1c0'),
    ('fd-output@0+delay', 'p', 0.0, 'random'): (((3, 0),), '1954201c7c603524'),
    ('fd-output@0+delay', 'p', 0.2, 'round-robin'): (((3, 0),), 'd3ca6c628f5db1c0'),
    ('fd-output@0+delay', 'p', 0.2, 'random'): (((3, 0),), '1954201c7c603524'),
    ('decision', 'omega', 0.0, 'round-robin'): (((41, 1),), '968aaa1450415d15'),
    ('decision', 'omega', 0.0, 'random'): (((48, 1),), 'fd574653c8a2b83e'),
    ('decision', 'omega', 0.2, 'round-robin'): (((41, 1),), '968aaa1450415d15'),
    ('decision', 'omega', 0.2, 'random'): (((48, 1),), 'fd574653c8a2b83e'),
    ('decision', 'p', 0.0, 'round-robin'): (((47, 0),), '8b95a34728bc56c9'),
    ('decision', 'p', 0.0, 'random'): (((49, 2),), '56294c4531b1913c'),
    ('decision', 'p', 0.2, 'round-robin'): (((47, 0),), '8b95a34728bc56c9'),
    ('decision', 'p', 0.2, 'random'): (((49, 2),), '56294c4531b1913c'),
    ('decision@2+delay', 'omega', 0.0, 'round-robin'): (((43, 2),), '6b9c819443c7dcb7'),
    ('decision@2+delay', 'omega', 0.0, 'random'): (((50, 2),), 'c9f7e9cf5e2cbd0d'),
    ('decision@2+delay', 'omega', 0.2, 'round-robin'): (((43, 2),), '6b9c819443c7dcb7'),
    ('decision@2+delay', 'omega', 0.2, 'random'): (((50, 2),), 'c9f7e9cf5e2cbd0d'),
    ('decision@2+delay', 'p', 0.0, 'round-robin'): (((49, 2),), 'f7342fc168ff4e8c'),
    ('decision@2+delay', 'p', 0.0, 'random'): (((51, 2),), '4797db2c21f1c3b7'),
    ('decision@2+delay', 'p', 0.2, 'round-robin'): (((49, 2),), 'f7342fc168ff4e8c'),
    ('decision@2+delay', 'p', 0.2, 'random'): (((51, 2),), '4797db2c21f1c3b7'),
    ('send-count@0', 'omega', 0.0, 'round-robin'): (((12, 0),), '1c2e1c62110685de'),
    ('send-count@0', 'omega', 0.0, 'random'): (((19, 0),), 'd274780973d5b0fe'),
    ('send-count@0', 'omega', 0.2, 'round-robin'): (((12, 0),), '31c57a7845dad925'),
    ('send-count@0', 'omega', 0.2, 'random'): (((19, 0),), '5054762717a07351'),
    ('send-count@0', 'p', 0.0, 'round-robin'): (((12, 0),), '1858b0d1e12d5bad'),
    ('send-count@0', 'p', 0.0, 'random'): (((19, 0),), '5e974d894cb0c025'),
    ('send-count@0', 'p', 0.2, 'round-robin'): (((12, 0),), '1858b0d1e12d5bad'),
    ('send-count@0', 'p', 0.2, 'random'): (((19, 0),), '5e974d894cb0c025'),
    ('send-count@1+delay', 'omega', 0.0, 'round-robin'): ((), 'a5d2a0d63337dd04'),
    ('send-count@1+delay', 'omega', 0.0, 'random'): ((), 'e9b6bba3414d7d8a'),
    ('send-count@1+delay', 'omega', 0.2, 'round-robin'): ((), 'a5d2a0d63337dd04'),
    ('send-count@1+delay', 'omega', 0.2, 'random'): ((), 'e9b6bba3414d7d8a'),
    ('send-count@1+delay', 'p', 0.0, 'round-robin'): ((), '1d4a443bb969c1e9'),
    ('send-count@1+delay', 'p', 0.0, 'random'): ((), '9ea5d5d350c07111'),
    ('send-count@1+delay', 'p', 0.2, 'round-robin'): ((), '1d4a443bb969c1e9'),
    ('send-count@1+delay', 'p', 0.2, 'random'): ((), '9ea5d5d350c07111'),
}


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
@pytest.mark.parametrize(
    "case",
    list(CRASH_RULE_PINS),
    ids=["-".join(map(str, case)) for case in CRASH_RULE_PINS],
)
def test_crash_rule_run_is_pinned(case, compiled):
    rule_id, detector, drop_p, policy = case
    spec = crash_rule_spec(
        PINNED_RULES[rule_id], detector, drop_p, policy, compiled
    )
    result = run_spec(spec, keep=True)
    assert (fired_pairs(result), trace_digest(result)) == CRASH_RULE_PINS[case]


# -- A crash rule may only crash a location of the system ---------------------


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
def test_unlocated_fd_output_rule_rejects_a_suspect_set_target(compiled):
    # P's fd output carries a suspect set, so the payload head is no
    # location: the rule must not put crash(()) into the execution.
    rule = CrashRule("on-first-fd-output")
    spec = crash_rule_spec(rule, "p", 0.0, "round-robin", compiled)
    with pytest.raises(ValueError, match=r"on-first-fd-output.*\(\)"):
        run_spec(spec)


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
def test_at_step_rule_rejects_an_unknown_location(compiled):
    rule = CrashRule("at-step", location=7, param=3)
    spec = crash_rule_spec(rule, "omega", 0.0, "round-robin", compiled)
    with pytest.raises(ValueError, match=r"at-step.* 7\b"):
        run_spec(spec)


def test_located_fd_output_rule_crashes_its_location_under_p():
    rule = CrashRule("on-first-fd-output", location=0)
    spec = crash_rule_spec(rule, "p", 0.0, "round-robin")
    result = run_spec(spec, keep=True)
    assert fired_pairs(result) == ((1, 0),)
    assert result.fd_ok

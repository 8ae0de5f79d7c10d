"""Chaos through the experiment engine: spec plumbing, sweep axis,
serial/parallel byte-determinism, and crash-rule integration.
"""

from __future__ import annotations

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.omega import Omega
from repro.faults.plan import CrashRule, FaultPlan
from repro.runner.batch import BatchRunner
from repro.runner.seeds import derive_seed
from repro.runner.spec import ExperimentSpec
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

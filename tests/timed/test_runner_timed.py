"""The "timed-detector" problem end to end: spec, runner, identity."""

from __future__ import annotations

import dataclasses

import pytest

from repro.detectors.eventually_perfect import EventuallyPerfect
from repro.detectors.omega import Omega
from repro.detectors.perfect import Perfect
from repro.faults import CrashRule, FaultPlan
from repro.runner.spec import spec_digest
from repro.runner import ExperimentSpec, run_spec

LOCS = (0, 1, 2)


def timed_spec(**overrides):
    base = dict(
        detector="heartbeat",
        locations=LOCS,
        problem="timed-detector",
        crashes={2: 160},
        timed={"delay": {"jitter": 2}},
        seed=5,
        max_steps=600,
        label="t",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_timed_requires_the_timed_problem(self):
        with pytest.raises(ValueError, match="timed-detector"):
            ExperimentSpec(
                detector="omega",
                locations=LOCS,
                problem="detector-trace",
                timed={"timeout": 2},
            )

    def test_detector_kwargs_are_rejected(self):
        with pytest.raises(ValueError, match="timed="):
            timed_spec(detector_kwargs={"timeout": 2})

    def test_implementation_must_be_named_by_string(self):
        with pytest.raises(ValueError, match="by string"):
            timed_spec(detector=EventuallyPerfect(LOCS))

    def test_unknown_implementation_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown timed implementation"):
            timed_spec(detector="gossip")

    def test_aliases_canonicalize_into_the_spec(self):
        assert timed_spec(detector="ping").detector == "ping-pong"
        assert timed_spec(detector="HB").detector == "heartbeat"

    def test_bad_timing_params_fail_at_construction(self):
        with pytest.raises(ValueError, match="timout"):
            timed_spec(timed={"timout": 2})

    def test_fault_plan_is_supported(self):
        spec = timed_spec(fault_plan=FaultPlan.uniform(drop_p=1.0))
        assert spec.resolve_fault_plan().is_bound


class TestResolution:
    def test_resolve_afd_is_the_target_class(self):
        assert isinstance(timed_spec().resolve_afd(), EventuallyPerfect)
        assert isinstance(
            timed_spec(detector="ping-pong").resolve_afd(), Perfect
        )
        assert isinstance(
            timed_spec(detector="leader-lease").resolve_afd(), Omega
        )

    def test_meta_carries_the_full_timing_identity(self):
        meta = dict(timed_spec(timed={"timeout": 4}).meta())
        assert meta["timed"]["timeout"] == 4
        assert meta["timed"]["delay"] == {
            "base": 1,
            "jitter": 0,
            "gst": 0,
            "post_jitter": None,
            "growth": 0,
        }

    def test_fingerprint_tracks_timing_params(self):
        # The timed knobs are cache identity: change a timeout,
        # change the key.
        a = spec_digest(timed_spec(timed={"timeout": 4}))
        b = spec_digest(timed_spec(timed={"timeout": 5}))
        c = spec_digest(timed_spec(timed={"timeout": 4}))
        assert a != b
        assert a == c


class TestRunSpec:
    def test_conformant_run(self):
        result = run_spec(timed_spec())
        assert result.problem == "timed-detector"
        assert result.fd_ok and result.solved
        assert result.conformance == {"oracle": "afd-validity", "ok": True}
        assert result.steps == 600
        assert result.messages_sent > 0
        assert result.error is None

    def test_violating_run_reports_the_localized_verdict(self):
        result = run_spec(timed_spec(detector="ping-pong", timed={"timeout": 2, "delay": {"jitter": 2}}))
        assert not result.fd_ok and not result.solved
        verdict = result.conformance
        assert verdict["oracle"] == "afd-validity"
        assert not verdict["ok"]
        assert 0 <= verdict["violation_index"] < result.steps
        assert "suspects live location" in verdict["reason"]

    def test_non_timed_results_have_no_conformance(self):
        result = run_spec(
            ExperimentSpec(
                detector="omega",
                locations=LOCS,
                problem="detector-trace",
                max_steps=40,
            )
        )
        assert result.conformance is None

    def test_compiled_and_interpreted_runs_agree(self):
        spec = timed_spec(fault_plan=FaultPlan.uniform(drop_p=0.3))
        interpreted = run_spec(dataclasses.replace(spec, compiled=False))
        compiled = run_spec(dataclasses.replace(spec, compiled=True))
        det = lambda r: dataclasses.replace(r, wall_s=0.0)  # noqa: E731
        assert det(interpreted) == det(compiled)

    def test_at_step_crash_rules_inject(self):
        plan = FaultPlan(
            crash_rules=(
                CrashRule(trigger="at-step", location=2, param=160),
            )
        )
        with_rule = run_spec(timed_spec(crashes={}, fault_plan=plan))
        with_pattern = run_spec(timed_spec())
        det = lambda r: dataclasses.replace(r, wall_s=0.0)  # noqa: E731
        assert det(with_rule) == det(with_pattern)

    def test_event_triggered_crash_rules_are_rejected(self):
        plan = FaultPlan(
            crash_rules=(
                CrashRule(trigger="on-first-fd-output", location=2),
            )
        )
        with pytest.raises(ValueError, match="at-step"):
            run_spec(timed_spec(fault_plan=plan))

    def test_run_is_a_pure_function_of_the_spec(self):
        det = lambda r: dataclasses.replace(r, wall_s=0.0)  # noqa: E731
        assert det(run_spec(timed_spec())) == det(run_spec(timed_spec()))
        # ...and the seed is load-bearing for the fault/delay draws.
        a = run_spec(timed_spec(detector="ping-pong", timed={"timeout": 4, "delay": {"jitter": 2}}, seed=1))
        b = run_spec(timed_spec(detector="ping-pong", timed={"timeout": 4, "delay": {"jitter": 2}}, seed=2))
        assert a.messages_sent != b.messages_sent or a.fd_ok != b.fd_ok

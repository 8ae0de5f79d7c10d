"""Property suite: timing assumptions decide AFD conformance.

The three satellite properties of the timed layer:

(a) bounded delay + bounded heartbeat period  =>  the adaptive
    heartbeat detector's trace is ◇P-conformant (and the grid's other
    implementations conform under their own realizability conditions).
    ◇P is pure liveness, so a finite run judges it at a horizon: a
    liveness verdict is re-judged at doubled horizons, while a safety
    verdict fails at once;
(b) unbounded delay (geometric growth)  =>  conformance fails, and the
    oracle's reported first-violation index is exactly right — a
    liveness failure indexes the end of the trace, a safety failure
    indexes the *minimal* unsafe prefix's last event;
(c) the same grid executed serially, with ``--jobs 2``, and from a warm
    result cache yields byte-identical results.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings

from repro.cache import ResultStore
from repro.faults.oracles import AfdValidityOracle
from repro.ioa.scheduler import Scheduler
from repro.runner import BatchRunner, ExperimentSpec, run_spec, sweep
from repro.runner.seeds import derive_seed
from repro.system.fault_pattern import FaultPattern
from repro.timed.params import DelayModel, TimedParams
from repro.timed.registry import build_automaton

from tests.timed.strategies import (
    STEPS_PER_TICK_3LOC,
    bounded_timing,
    run_seeds,
    unbounded_timing,
)

LOCS = (0, 1, 2)
CRASHES = {2: 40 * STEPS_PER_TICK_3LOC}
MAX_STEPS = 150 * STEPS_PER_TICK_3LOC
#: How often a liveness verdict is re-judged at double the horizon.
HORIZON_DOUBLINGS = 3


def timed_spec(impl, params, seed, **overrides):
    base = dict(
        detector=impl,
        locations=LOCS,
        problem="timed-detector",
        crashes=CRASHES,
        timed=params,
        seed=seed,
        max_steps=MAX_STEPS,
        label=impl,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def judged_trace(spec):
    """(trace, verdict) of the run ``run_spec(spec)`` judges, bypassing
    the runner's packaging: the same network seed and liveness bound."""
    automaton = build_automaton(
        spec.detector,
        spec.locations,
        params=spec.resolve_timed(),
        seed=derive_seed(spec.seed, "timed-net"),
    )
    execution = Scheduler().run(
        automaton,
        max_steps=spec.max_steps,
        injections=FaultPattern(spec.crashes).injections(),
    )
    trace = list(execution.trace(automaton))
    verdict = AfdValidityOracle(
        automaton.afd(), spec.min_live_outputs
    ).check(trace)
    return trace, verdict


def assert_conformant_within_doublings(spec):
    """``spec`` conforms at its horizon or at one of
    :data:`HORIZON_DOUBLINGS` doubled horizons; every verdict before
    that must be liveness (indexed at the trace end), never safety."""
    for _ in range(HORIZON_DOUBLINGS):
        result = run_spec(spec)
        if result.fd_ok:
            return
        trace, verdict = judged_trace(spec)
        assert verdict.violation_index == len(trace), result.conformance
        spec = dataclasses.replace(spec, max_steps=2 * spec.max_steps)
    result = run_spec(spec)
    assert result.fd_ok, result.conformance


class TestBoundedDelayImpliesConformance:
    """Property (a): the realizability direction."""

    @settings(max_examples=15, deadline=None)
    @given(params=bounded_timing(), seed=run_seeds())
    # At this corner of the grid location 0's timeout for peer 1 is
    # still climbing near the end of a 600-step run: the verdict at
    # MAX_STEPS is liveness (2 outputs after the last violation, 3
    # needed), and the run conforms at 1,200 steps.
    @example(
        params=TimedParams(
            heartbeat_period=3,
            timeout=1,
            timeout_bump=1,
            lease=1,
            delay=DelayModel(base=2, jitter=3),
        ),
        seed=4485191,
    )
    def test_heartbeat_is_eventually_perfect(self, params, seed):
        # Any bounded grid point: the adaptive bump must win the race,
        # though not always by a fixed horizon.
        assert_conformant_within_doublings(
            timed_spec("heartbeat", params, seed)
        )

    @settings(max_examples=10, deadline=None)
    @given(params=bounded_timing(), seed=run_seeds())
    def test_leader_lease_stabilizes_omega(self, params, seed):
        result = run_spec(timed_spec("leader-lease", params, seed))
        assert result.fd_ok, result.conformance

    @settings(max_examples=10, deadline=None)
    @given(params=bounded_timing(), seed=run_seeds())
    def test_pingpong_above_the_round_trip_bound_is_perfect(
        self, params, seed
    ):
        # P needs the extra realizability condition: the timeout covers
        # the worst-case round trip (2 * max_total - 1).
        safe = params.merged(
            {"timeout": max(params.timeout, 2 * params.delay.max_total - 1)}
        )
        result = run_spec(timed_spec("ping-pong", safe, seed))
        assert result.fd_ok, result.conformance


class TestUnboundedDelayImpliesViolation:
    """Property (b): the impossibility direction, with exact indices."""

    @settings(max_examples=10, deadline=None)
    @given(params=unbounded_timing(), seed=run_seeds())
    def test_heartbeat_fails_as_liveness_at_trace_end(self, params, seed):
        spec = timed_spec("heartbeat", params, seed, crashes={})
        result = run_spec(spec)
        assert not result.fd_ok
        trace, verdict = judged_trace(spec)
        assert not verdict.ok
        # ◇P has no finite safety content: the failure is the missing
        # stabilization witness, indexed at the end of the trace.
        assert verdict.violation_index == len(trace)
        assert result.conformance["violation_index"] == len(trace)
        assert result.conformance["reason"]

    @settings(max_examples=10, deadline=None)
    @given(params=unbounded_timing(), seed=run_seeds())
    def test_pingpong_fails_as_safety_at_the_minimal_prefix(
        self, params, seed
    ):
        # Growth >= 3 forces a round trip past any timeout in the grid,
        # so a live peer is irrevocably suspected: a strong-accuracy
        # (safety) violation with one exactly-localizable output.
        spec = timed_spec("ping-pong", params, seed, crashes={})
        trace, verdict = judged_trace(spec)
        assert not verdict.ok
        k = verdict.violation_index
        assert 0 <= k < len(trace)
        automaton = build_automaton(
            spec.detector, LOCS, params=spec.resolve_timed(), seed=spec.seed
        )
        afd = automaton.afd()
        events = [a for a in trace if afd.is_event(a)]
        prefix = [a for a in trace[:k] if afd.is_event(a)]
        assert afd.check_safety(prefix)  # safe before the event...
        assert not afd.check_safety(prefix + [trace[k]])  # ...unsafe at it
        assert len(prefix) + 1 <= len(events)


class TestExecutionModeIdentity:
    """Property (c): serial == --jobs 2 == cache-warm, byte for byte."""

    def grid(self):
        base = timed_spec("heartbeat", None, 0, max_steps=400)
        specs = []
        for impl in ("heartbeat", "ping-pong"):
            specs.extend(
                sweep(
                    dataclasses.replace(base, detector=impl, label=impl),
                    seeds=2,
                    timed_params=[
                        {"timeout": 2, "delay": {"jitter": 2}},
                        {"timeout": 6, "delay": {"jitter": 2}},
                    ],
                )
            )
        return specs

    @staticmethod
    def det(results):
        return [dataclasses.replace(r, wall_s=0.0) for r in results]

    @pytest.mark.usefixtures("fan_out_everything")
    def test_serial_jobs2_and_cache_warm_agree(self, tmp_path):
        specs = self.grid()
        serial = BatchRunner(jobs=1).run(specs, raise_on_error=True)
        parallel = BatchRunner(jobs=2).run(specs, raise_on_error=True)
        store = ResultStore(str(tmp_path / "store"))
        cold = BatchRunner(jobs=1, cache=store).run(
            specs, raise_on_error=True
        )
        warm = BatchRunner(jobs=1, cache=store).run(
            specs, raise_on_error=True
        )
        assert warm.cache_hits == len(specs)
        baseline = self.det(serial.results)
        assert self.det(parallel.results) == baseline
        assert self.det(cold.results) == baseline
        assert self.det(warm.results) == baseline
        # The grid exercises both verdicts, or the identity is vacuous.
        assert {r.fd_ok for r in serial.results} == {True, False}

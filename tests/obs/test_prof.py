"""StepProfiler and cache telemetry: scripted clocks, identity, export."""

from __future__ import annotations

import json

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.compiled.system import clear_spec_cache
from repro.faults import FaultPlan
from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.scheduler import (
    Injection,
    RoundRobinPolicy,
    Scheduler,
    set_default_profiler,
)
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.prof import (
    PHASES,
    PROFILE_SCHEMA,
    CacheCounter,
    StepProfiler,
    cache_counter,
    cache_stats_delta,
    cache_stats_snapshot,
    reset_cache_stats,
    validate_profile,
)
from repro.problems.bounded import MaskedRoundRobinPolicy
from repro.runner import ExperimentSpec, run_spec

T1 = Action("t1", 0)
T2 = Action("t2", 1)
IN = Action("in", 0)
LOCS = (0, 1, 2)


def two_task_machine():
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


def scripted_clock(step=1.0, readings=None):
    """A deterministic clock advancing by ``step`` per reading (each
    reading is appended to ``readings`` when given)."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step
        if readings is not None:
            readings.append(state["t"])
        return state["t"]

    return clock


class TestStepProfiler:
    def test_scripted_clock_books_exact_durations(self):
        prof = StepProfiler(clock=scripted_clock(0.5))
        t0 = prof.t()
        prof.add("apply", prof.t() - t0)
        assert prof.phase_calls == {"apply": 1}
        assert prof.phase_wall_s == {"apply": 0.5}
        assert prof.wall_s == 0.5

    def test_run_counters_accumulate_across_runs(self):
        prof = StepProfiler(clock=scripted_clock())
        prof.open_run()
        prof.close_run(steps=10, injections=2)
        prof.open_run()
        prof.close_run(steps=5, injections=0)
        assert prof.runs == 2
        assert prof.steps == 15
        assert prof.injections == 2
        # One fresh state per fired step plus the initial state per run.
        assert prof.states_touched == 10 + 1 + 5 + 1

    def test_frozen_now_fn_stamps_summary(self):
        prof = StepProfiler(clock=scripted_clock(), now_fn=lambda: 1234.9)
        doc = prof.summary()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["created_unix"] == 1234
        assert validate_profile(doc) == []

    def test_summary_phases_sorted_and_rounded(self):
        prof = StepProfiler(clock=scripted_clock())
        prof.add("policy", 0.25)
        prof.add("apply", 0.125)
        doc = prof.summary(include_cache=False)
        assert list(doc["phases"]) == sorted(doc["phases"])
        assert doc["phases"]["apply"] == {"calls": 1, "wall_s": 0.125}
        assert "cache" not in doc
        json.dumps(doc)  # JSON-serializable as-is

    def test_reset_forgets_everything(self):
        prof = StepProfiler(clock=scripted_clock())
        prof.add("apply", 1.0)
        prof.open_run()
        prof.close_run(3, 0)
        prof.reset()
        assert prof.phase_calls == {}
        assert prof.runs == prof.steps == prof.states_touched == 0

    def test_to_json_round_trips(self, tmp_path):
        prof = StepProfiler(clock=scripted_clock(), now_fn=lambda: 7.0)
        prof.add("snapshot", 0.5)
        path = tmp_path / "PROFILE_X.json"
        text = prof.to_json(str(path))
        doc = json.loads(path.read_text())
        assert doc == json.loads(text)
        assert validate_profile(doc) == []


class TestValidateProfile:
    def test_rejects_non_dict(self):
        assert validate_profile([1]) != []

    def test_missing_key(self):
        doc = StepProfiler(now_fn=lambda: 0.0).summary()
        del doc["counters"]
        assert any("counters" in e for e in validate_profile(doc))

    def test_wrong_schema_tag(self):
        doc = StepProfiler(now_fn=lambda: 0.0).summary()
        doc["schema"] = "other/9"
        assert validate_profile(doc) != []

    def test_phase_without_calls_rejected(self):
        doc = StepProfiler(now_fn=lambda: 0.0).summary()
        doc["phases"]["apply"] = {"wall_s": 0.1}
        assert validate_profile(doc) != []

    def test_non_integer_counter_rejected(self):
        doc = StepProfiler(now_fn=lambda: 0.0).summary()
        doc["counters"]["steps"] = 1.5
        assert validate_profile(doc) != []


class TestCacheCounters:
    def test_counter_is_process_global_and_in_place(self):
        a = cache_counter("test.memo-a")
        assert cache_counter("test.memo-a") is a
        a.hits += 3
        a.misses += 1
        assert a.probes == 4
        assert a.hit_rate == 0.75
        reset_cache_stats()
        # Existing references stay live; the counts are zeroed in place.
        assert a.hits == a.misses == 0
        assert a.hit_rate == 0.0

    def test_as_dict_sorted_keys(self):
        c = CacheCounter("x")
        c.hits = 2
        assert list(c.as_dict()) == sorted(c.as_dict())

    def test_delta_drops_idle_memos(self):
        counter = cache_counter("test.memo-b")
        before = cache_stats_snapshot()
        counter.hits += 5
        counter.misses += 5
        delta = cache_stats_delta(before)
        assert delta["test.memo-b"]["hits"] == 5
        assert delta["test.memo-b"]["hit_rate"] == 0.5
        # Memos with no probes in the window are absent from the delta.
        assert "test.memo-a" not in delta

    def test_delta_counts_absent_memos_from_zero(self):
        counter = cache_counter("test.memo-c")
        counter.hits += 1
        delta = cache_stats_delta({})
        assert delta["test.memo-c"]["hits"] >= 1


class TestSchedulerIntegration:
    @pytest.mark.parametrize("compiled", [False, True])
    def test_profiled_run_is_execution_identical(self, compiled):
        base = Scheduler(RoundRobinPolicy(), compiled=compiled).run(
            two_task_machine(), 8
        )
        prof = StepProfiler()
        profiled = Scheduler(
            RoundRobinPolicy(), instrument=prof, compiled=compiled
        ).run(two_task_machine(), 8)
        assert list(profiled.actions) == list(base.actions)
        assert list(profiled.states) == list(base.states)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_phases_and_counters_recorded(self, compiled):
        prof = StepProfiler()
        Scheduler(RoundRobinPolicy(), instrument=prof, compiled=compiled).run(
            two_task_machine(), 8
        )
        assert prof.runs == 1
        assert prof.steps == 8
        assert prof.phase_calls["policy"] == 8
        assert prof.phase_calls["apply"] == 8
        assert prof.phase_calls["unattributed"] == 1
        if compiled:
            # The policy twin reads the snapshot tables itself; a
            # transition-table miss is part of ``apply``.
            assert prof.phase_calls["compile"] == 1
            assert "snapshot" not in prof.phase_calls
        else:
            assert prof.phase_calls["snapshot"] == 8
        assert "intern" not in prof.phase_calls
        assert set(prof.phase_calls) <= set(PHASES)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_stop_when_booked_once_per_evaluation(self, compiled):
        evaluations = []

        def stop_when(state):
            # Round-robin alternates the two counters: after k steps
            # they sum to k.
            evaluations.append(sum(state))
            return sum(state) >= 5

        prof = StepProfiler(clock=scripted_clock(0.5))
        Scheduler(RoundRobinPolicy(), instrument=prof, compiled=compiled).run(
            two_task_machine(), 8, stop_when=stop_when
        )
        assert evaluations == [0, 1, 2, 3, 4, 5]
        assert prof.steps == 5
        assert prof.phase_calls["stop-when"] == len(evaluations)
        # Two scripted readings per evaluation, 0.5 s apart.
        assert prof.phase_wall_s["stop-when"] == 0.5 * len(evaluations)

    @pytest.mark.parametrize("compiled", [False, True])
    def test_no_stop_when_books_no_phase(self, compiled):
        prof = StepProfiler(clock=scripted_clock())
        Scheduler(RoundRobinPolicy(), instrument=prof, compiled=compiled).run(
            two_task_machine(), 8
        )
        assert prof.steps == 8
        assert "stop-when" not in prof.phase_calls

    @pytest.mark.parametrize("compiled", [False, True])
    def test_injections_booked_separately(self, compiled):
        prof = StepProfiler()
        Scheduler(RoundRobinPolicy(), instrument=prof, compiled=compiled).run(
            two_task_machine(), 4, injections=[Injection(2, IN)]
        )
        assert prof.injections == 1
        assert prof.phase_calls["injection"] == 1

    @pytest.mark.parametrize(
        "compiled, expected",
        [
            # Per step: stop-when, the policy (its snapshot read booked
            # apart) and the apply.  Each clock reading is one tick, and
            # each gap between wrapped calls is one tick of
            # unattributed: three per step and the one before the run
            # closes.
            (False, {"stop-when": 8.0, "snapshot": 8.0, "policy": 16.0,
                     "apply": 8.0, "unattributed": 25.0}),
            # The policy twin reads the snapshot tables itself, so it
            # books no snapshot; the table misses are part of the apply.
            (True, {"compile": 1.0, "stop-when": 8.0, "policy": 8.0,
                    "apply": 8.0, "unattributed": 25.0}),
        ],
    )
    def test_phases_sum_to_the_loop_wall(self, compiled, expected):
        readings = []
        prof = StepProfiler(clock=scripted_clock(1.0, readings))
        Scheduler(
            RoundRobinPolicy(),
            instrument=prof,
            compiled=compiled,
        ).run(two_task_machine(), 8, stop_when=lambda state: False)
        assert prof.phase_wall_s == expected
        # compile is booked before the run opens; every other phase lies
        # inside the run, from its start reading to the last reading.
        run_start = readings[2] if compiled else readings[0]
        compile_s = prof.phase_wall_s.get("compile", 0.0)
        assert prof.wall_s - compile_s == readings[-1] - run_start

    @pytest.mark.parametrize("compiled", [False, True])
    def test_unattributed_never_negative(self, compiled):
        prof = StepProfiler(clock=scripted_clock(0.5))
        residuals = []
        for steps in (3, 8, 5):
            before = prof.phase_wall_s.get("unattributed", 0.0)
            Scheduler(
                RoundRobinPolicy(),
                instrument=prof,
                compiled=compiled,
            ).run(
                two_task_machine(),
                steps,
                injections=[Injection(1, IN)],
                stop_when=lambda state: False,
            )
            residuals.append(prof.phase_wall_s["unattributed"] - before)
        assert prof.phase_calls["unattributed"] == prof.runs == 3
        assert all(r >= 0 for r in residuals), residuals

    def test_default_profiler_seam(self):
        prof = StepProfiler()
        previous = set_default_profiler(prof)
        try:
            scheduler = Scheduler(RoundRobinPolicy())
            assert scheduler.profiler is prof
            scheduler.run(two_task_machine(), 3)
        finally:
            set_default_profiler(previous)
        assert prof.steps == 3
        # Restored: new schedulers are unprofiled again.
        assert Scheduler(RoundRobinPolicy()).profiler is previous

    def test_explicit_profiler_beats_default(self):
        fallback, explicit = StepProfiler(), StepProfiler()
        previous = set_default_profiler(fallback)
        try:
            scheduler = Scheduler(RoundRobinPolicy(), instrument=explicit)
            assert scheduler.profiler is explicit
        finally:
            set_default_profiler(previous)


def consensus_spec(**overrides):
    base = dict(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        crashes={0: 10},
        f=1,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def chaos_spec(**overrides):
    """Consensus over lossy channels: the run drives a Composition."""
    base = dict(
        proposals={0: 1, 1: 0, 2: 1},
        crashes={},
        seed=3,
        max_steps=2_000,
        fault_plan=FaultPlan.uniform(drop_p=0.15),
    )
    base.update(overrides)
    return consensus_spec(**base)


def timed_spec(**overrides):
    """A timed heartbeat detector: one flat automaton, no Composition."""
    base = dict(
        detector="heartbeat",
        locations=LOCS,
        problem="timed-detector",
        crashes={2: 160},
        timed={"delay": {"jitter": 2}},
        seed=5,
        max_steps=600,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestProfiledWorkEquality:
    """A profiled run does exactly the unprofiled run's work: the same
    ``enabled_by_task`` calls and the same cache activity."""

    @staticmethod
    def measure(calls, spec):
        # Fresh automata on each side: no compiled tables carry over.
        clear_spec_cache()
        calls.clear()
        before = cache_stats_snapshot()
        result = run_spec(spec)
        return result, dict(calls), cache_stats_delta(before)

    @pytest.mark.parametrize("compiled", [False, True])
    @pytest.mark.parametrize(
        "make_spec", [chaos_spec, timed_spec], ids=["chaos", "timed"]
    )
    def test_same_snapshot_calls_and_cache_deltas(
        self, snapshot_calls, make_spec, compiled
    ):
        plain, plain_calls, plain_cache = self.measure(
            snapshot_calls, make_spec(compiled=compiled)
        )
        profiled, profiled_calls, profiled_cache = self.measure(
            snapshot_calls, make_spec(compiled=compiled, profile=True)
        )
        assert profiled.steps == plain.steps
        assert profiled.profile["counters"]["steps"] == plain.steps
        assert sum(plain_calls.values()) > 0
        assert profiled_calls == plain_calls
        assert profiled_cache == plain_cache

    def test_policy_that_never_snapshots_books_no_snapshot(
        self, snapshot_calls
    ):
        policy = MaskedRoundRobinPolicy(lambda task: True)
        Scheduler(policy).run(two_task_machine(), 8)
        assert not snapshot_calls
        prof = StepProfiler()
        Scheduler(policy, instrument=prof).run(two_task_machine(), 8)
        assert prof.steps == 8
        assert prof.phase_calls["policy"] == 8
        assert "snapshot" not in prof.phase_calls
        assert not snapshot_calls


class TestSpecProfile:
    def test_profile_flag_returns_summary(self):
        result = run_spec(consensus_spec(profile=True))
        assert result.solved
        assert result.profile is not None
        assert validate_profile(result.profile) == []
        assert result.profile["counters"]["steps"] == result.steps

    def test_profile_off_by_default(self):
        assert run_spec(consensus_spec()).profile is None

    def test_profiling_does_not_change_the_execution(self):
        plain = run_spec(consensus_spec())
        profiled = run_spec(consensus_spec(profile=True))
        assert profiled.solved == plain.solved
        assert profiled.steps == plain.steps
        assert profiled.decisions == plain.decisions
        assert profiled.messages_sent == plain.messages_sent

    def test_cache_hits_nonzero_on_consensus_kernel(self):
        result = run_spec(consensus_spec(profile=True))
        cache = result.profile["cache"]
        assert cache["composition.dispatch"]["hits"] > 0
        # Nearly every step reuses or patches the previous snapshot; only
        # the fired action's participants re-probe the enabled cache.
        assert cache["composition.snapshot"]["hit_rate"] > 0.9
        assert cache["composition.snapshot"]["misses"] >= 1
        assert cache["composition.enabled"]["hit_rate"] > 0.5

"""Tests for the AFD base machinery (Section 3.2)."""

from repro.core.afd import (
    CheckResult,
    check_afd_closure_properties,
    eventually_forever,
)
from repro.detectors.omega import Omega, omega_output
from repro.detectors.perfect import Perfect, perfect_output
from repro.system.fault_pattern import crash_action
from tests.conftest import run_detector
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestCheckResult:
    def test_truthiness(self):
        assert CheckResult.success()
        assert not CheckResult.failure("nope")

    def test_merge(self):
        good = CheckResult.success()
        bad = CheckResult.failure("a")
        merged = good.merge(bad)
        assert not merged
        assert merged.reasons == ["a"]


class TestEventuallyForever:
    def test_no_violation(self):
        t = [omega_output(i, 1) for _ in range(3) for i in (0, 1)]
        assert eventually_forever(t, frozenset({0, 1}), lambda a: True)

    def test_violation_followed_by_stabilization(self):
        t = [
            omega_output(0, 9),  # violation
            omega_output(0, 1),
            omega_output(1, 1),
        ]
        ok = lambda a: a.payload[0] == 1
        assert eventually_forever(
            t, frozenset({0, 1}), ok, min_tail_outputs=1
        )

    def test_violation_at_end_fails(self):
        t = [omega_output(0, 1), omega_output(1, 9)]
        ok = lambda a: a.payload[0] == 1
        result = eventually_forever(
            t, frozenset({0, 1}), ok, min_tail_outputs=1
        )
        assert not result

    def test_crash_events_never_violate(self):
        t = [crash_action(2), omega_output(0, 1), omega_output(1, 1)]
        ok = lambda a: a.payload[0] == 1
        assert eventually_forever(
            t, frozenset({0, 1}), ok, min_tail_outputs=1
        )

    def test_min_tail_outputs(self):
        t = [
            omega_output(0, 9),
            omega_output(0, 1),
            omega_output(1, 1),
        ]
        ok = lambda a: a.payload[0] == 1
        assert not eventually_forever(
            t, frozenset({0, 1}), ok, min_tail_outputs=2
        )

    def test_default_requires_three_tail_outputs(self):
        """One trailing conforming output is not stabilization evidence
        under the default threshold."""
        t = [omega_output(0, 9), omega_output(0, 1), omega_output(1, 1)]
        ok = lambda a: a.payload[0] == 1
        assert not eventually_forever(t, frozenset({0, 1}), ok)
        stable = [omega_output(0, 9)] + [
            omega_output(i, 1) for _ in range(3) for i in (0, 1)
        ]
        assert eventually_forever(stable, frozenset({0, 1}), ok)

    def test_failure_names_the_first_short_live_location(self):
        # After the last violation (index 4) both live locations fall
        # short; the reason names the first of them in ``live``'s order.
        t = [
            omega_output(0, 9),
            omega_output(1, 1),
            crash_action(2),
            omega_output(0, 1),
            omega_output(1, 9),
            omega_output(0, 1),
        ]
        ok = lambda a: a.payload[0] == 1
        result = eventually_forever(
            t, frozenset({0, 1}), ok, min_tail_outputs=2, description="Omega"
        )
        assert result.reasons == [
            "Omega: live location 0 has only 1 outputs after the last "
            "violating event (index 4); needed >= 2"
        ]


class TestAFDVocabulary:
    def test_is_output(self):
        omega = Omega(LOCS)
        assert omega.is_output(omega_output(0, 1))
        assert not omega.is_output(perfect_output(0, ()))
        assert not omega.is_output(omega_output(9, 1))

    def test_is_event(self):
        omega = Omega(LOCS)
        assert omega.is_event(crash_action(0))
        assert omega.is_event(omega_output(1, 2))
        assert not omega.is_event(perfect_output(0, ()))

    def test_project_events(self):
        omega = Omega(LOCS)
        t = [omega_output(0, 1), perfect_output(0, ()), crash_action(1)]
        assert omega.project_events(t) == [
            omega_output(0, 1),
            crash_action(1),
        ]

    def test_action_sets_declare_their_keys(self):
        omega = Omega(LOCS)
        outputs, events = omega.output_actions(), omega.event_actions()
        assert outputs.keys() == {("fd-omega", i) for i in LOCS}
        assert events.keys() == outputs.keys() | {("crash", i) for i in LOCS}
        assert omega_output(1, 2) in outputs and omega_output(1, 2) in events
        assert crash_action(2) in events and crash_action(2) not in outputs
        # I-hat holds the crash events of Pi only.
        assert crash_action(9) not in events


class TestSafetyChecks:
    def test_malformed_output_rejected(self):
        omega = Omega(LOCS)
        bad = omega_output(0, 99)  # leader not in Pi
        result = omega.check_safety([bad])
        assert not result
        assert "malformed" in result.reasons[0]

    def test_foreign_event_rejected(self):
        omega = Omega(LOCS)
        result = omega.check_safety([perfect_output(0, ())])
        assert not result

    def test_output_after_crash_rejected(self):
        omega = Omega(LOCS)
        result = omega.check_safety(
            [crash_action(0), omega_output(0, 1)]
        )
        assert not result


class TestCheckLimit:
    def test_liveness_failure_lists_every_silent_live_location(self):
        # Safety holds, so check_limit reports validity's liveness half:
        # one reason per silent live location, in live-set order.
        result = Omega(LOCS).check_limit([omega_output(0, 0)])
        assert result.reasons == [
            "live location 1 has only 0 output events (needed >= 1)",
            "live location 2 has only 0 output events (needed >= 1)",
        ]

    def test_output_after_crash_fails_before_liveness(self):
        result = Omega(LOCS).check_limit([crash_action(0), omega_output(0, 1)])
        assert result.reasons == [
            "event fd-omega(1)_0 at index 1 occurs after crash_0"
        ]


class TestRenamedAFD:
    def test_renamed_checker_delegates(self):
        omega = Omega(LOCS)
        renamed = omega.renamed()
        t = run_detector(
            omega.automaton(), FaultPattern({2: 4}, LOCS), 90
        )
        renamed_t = renamed.renaming_map.apply_sequence(t)
        assert renamed.check_limit(renamed_t)
        # And the renamed checker rejects unrenamed events.
        assert not renamed.check_limit(t)

    def test_renamed_automaton_generates_renamed_trace(self):
        omega = Omega(LOCS)
        renamed = omega.renamed()
        t = run_detector(
            renamed.automaton(), FaultPattern({1: 5}, LOCS), 90
        )
        outputs = [a for a in t if not a.name == "crash"]
        assert outputs
        assert all(a.name == "fd-omega'" for a in outputs)
        assert renamed.check_limit(t)

    def test_renamed_name(self):
        assert Omega(LOCS).renamed().name == "Omega'"


class TestClosureProperties:
    def test_omega_closures_on_generated_trace(self):
        omega = Omega(LOCS)
        t = run_detector(
            omega.automaton(), FaultPattern({2: 6}, LOCS), 120
        )
        assert check_afd_closure_properties(omega, t, seed=11)

    def test_perfect_closures_on_generated_trace(self):
        perfect = Perfect(LOCS)
        t = run_detector(
            perfect.automaton(), FaultPattern({0: 9}, LOCS), 120
        )
        assert check_afd_closure_properties(perfect, t, seed=11)

    def test_rejected_base_trace_reported(self):
        omega = Omega(LOCS)
        bad = [crash_action(0), omega_output(0, 1)]
        result = check_afd_closure_properties(omega, bad)
        assert not result
        assert "base trace rejected" in result.reasons[0]

"""Mutation testing for the conformance oracles.

For every oracle in :mod:`repro.faults.oracles` this suite constructs a
run that violates *exactly that oracle's property* and asserts (a) the
oracle fires with the correct first-violation index, and (b) every other
oracle stays silent.  A green run here means the oracles are
load-bearing: each one can actually catch its violation, and none fires
on another's.

The traces are hand-built around one clean base run over locations
(0, 1) whose every property holds; each case is a minimal mutation of
that base.
"""

from __future__ import annotations

from repro.detectors.omega import Omega, omega_output
from repro.faults.oracles import (
    AfdValidityOracle,
    ConsensusAgreementOracle,
    ConsensusTerminationOracle,
    ConsensusValidityOracle,
    CrashValidityOracle,
    FifoOracle,
    NoDuplicationOracle,
    NoLossOracle,
    run_oracles,
)
from repro.system.channel import receive_action, send_action
from repro.system.environment import decide_action, propose_action
from repro.system.fault_pattern import crash_action

LOCATIONS = (0, 1)


def oracle_bundle(allowed_crashes=()):
    """Every oracle, configured for the (0, 1) system of these traces."""
    return (
        NoLossOracle(),
        NoDuplicationOracle(),
        FifoOracle(),
        CrashValidityOracle(allowed=allowed_crashes),
        AfdValidityOracle(Omega(LOCATIONS)),
        ConsensusAgreementOracle(),
        ConsensusValidityOracle(),
        ConsensusTerminationOracle(LOCATIONS),
    )


def clean_trace():
    """A base run every oracle accepts.

    Leader 1 throughout (so variants that crash location 0 keep Omega
    valid); location 0's fd outputs all precede location 1's (so with
    live = {1} the three outputs at 1 form the stabilization witness
    Omega's limit check needs after the last location-0 output).
    """
    return [
        propose_action(0, 1),          # 0
        propose_action(1, 0),          # 1
        omega_output(0, 1),            # 2
        omega_output(0, 1),            # 3
        omega_output(0, 1),            # 4
        omega_output(1, 1),            # 5
        omega_output(1, 1),            # 6
        omega_output(1, 1),            # 7
        send_action(0, "m1", 1),       # 8
        receive_action(1, "m1", 0),    # 9
        send_action(1, "m2", 0),       # 10
        receive_action(0, "m2", 1),    # 11
        decide_action(0, 1),           # 12
        decide_action(1, 1),           # 13
    ]


def assert_only(trace, oracles, expected_oracle, expected_index):
    """The expected oracle fires at the expected index; the rest pass."""
    report = run_oracles(trace, oracles)
    verdict = report.verdict(expected_oracle)
    assert not verdict.ok, f"{expected_oracle} did not fire: {report.to_dict()}"
    assert verdict.violation_index == expected_index, (
        f"{expected_oracle} fired at {verdict.violation_index}, "
        f"expected {expected_index}: {verdict.reason}"
    )
    silent = [v for v in report.verdicts if v.oracle != expected_oracle]
    noisy = [v for v in silent if not v.ok]
    assert not noisy, (
        f"oracles fired beyond {expected_oracle}: "
        f"{[(v.oracle, v.violation_index, v.reason) for v in noisy]}"
    )


def test_clean_trace_passes_every_oracle():
    report = run_oracles(clean_trace(), oracle_bundle())
    assert report.ok, report.to_dict()
    assert report.failures == ()


def test_no_loss_fires_on_dropped_message():
    trace = clean_trace()
    trace.append(send_action(0, "lost", 1))  # sent, never received
    assert_only(trace, oracle_bundle(), "no-loss", 14)


def test_no_loss_excuses_messages_still_in_transit():
    trace = clean_trace()
    trace.append(send_action(0, "pending", 1))
    excused = NoLossOracle(final_in_transit={(0, 1): ("pending",)})
    assert excused.check(trace).ok
    # The excuse is per-message: it does not cover a genuinely lost one.
    trace.append(send_action(0, "lost", 1))
    verdict = excused.check(trace)
    assert not verdict.ok and verdict.violation_index == 15


def test_no_duplication_fires_on_double_delivery():
    trace = clean_trace()
    trace.insert(10, receive_action(1, "m1", 0))  # second copy of m1
    assert_only(trace, oracle_bundle(), "no-duplication", 10)


def test_no_duplication_fires_on_never_sent_message():
    trace = clean_trace()
    trace.append(receive_action(1, "ghost", 0))
    assert_only(trace, oracle_bundle(), "no-duplication", 14)


def test_fifo_fires_on_reordered_delivery():
    trace = clean_trace()
    # Channel 0->1 sends m1 then m3 but delivers m3 first.
    trace[8:10] = [
        send_action(0, "m1", 1),       # 8
        send_action(0, "m3", 1),       # 9
        receive_action(1, "m3", 0),    # 10
        receive_action(1, "m1", 0),    # 11  <- out of order
    ]
    assert_only(trace, oracle_bundle(), "fifo", 11)


def test_fifo_accepts_in_place_duplicates():
    # A duplicate delivered adjacently is no-duplication's business, not
    # FIFO's: order among distinct sends is preserved.
    trace = [
        send_action(0, "a", 1),
        send_action(0, "b", 1),
        receive_action(1, "a", 0),
        receive_action(1, "a", 0),
        receive_action(1, "b", 0),
    ]
    assert FifoOracle().check(trace).ok
    assert not NoDuplicationOracle().check(trace).ok


def test_crash_validity_fires_on_unplanned_crash():
    trace = clean_trace()
    trace.append(crash_action(0))  # index 14; only location 1 may crash
    assert_only(trace, oracle_bundle(allowed_crashes=(1,)), "crash-validity", 14)


def test_crash_validity_fires_on_zombie_send():
    trace = clean_trace()
    trace.append(crash_action(0))              # 14 (allowed)
    trace.append(send_action(0, "z", 1))       # 15 <- zombie activity
    trace.append(receive_action(1, "z", 0))    # 16 (keeps no-loss silent)
    assert_only(trace, oracle_bundle(allowed_crashes=(0,)), "crash-validity", 15)


def test_crash_validity_permits_delivery_to_crashed_location():
    # receive(m, i)_j is the channel's output: delivering to a crashed
    # destination is legitimate and must not read as zombie activity.
    trace = clean_trace()
    trace.insert(11, crash_action(0))  # crash 0 just before its receive
    report = run_oracles(trace, oracle_bundle(allowed_crashes=(0,)))
    # decide(1)_0 now follows the crash: that (and only that) fires.
    assert [v.oracle for v in report.failures] == ["crash-validity"]
    assert report.verdict("crash-validity").violation_index == 13


def test_afd_validity_fires_on_output_after_crash():
    trace = clean_trace()
    trace.append(crash_action(0))      # 14 (allowed)
    trace.append(omega_output(0, 1))   # 15 <- output at a crashed location
    assert_only(trace, oracle_bundle(allowed_crashes=(0,)), "afd-validity", 15)


def test_afd_validity_reports_liveness_failure_at_trace_end():
    # Location 1 never outputs: a pure liveness failure, no single
    # violating event — the index is len(trace).
    trace = [
        propose_action(0, 1),
        propose_action(1, 1),
        omega_output(0, 1),
        omega_output(0, 1),
        omega_output(0, 1),
        decide_action(0, 1),
        decide_action(1, 1),
    ]
    verdict = AfdValidityOracle(Omega(LOCATIONS)).check(trace)
    assert not verdict.ok
    assert verdict.violation_index == len(trace)


def test_agreement_fires_on_conflicting_decisions():
    trace = clean_trace()
    trace[13] = decide_action(1, 0)  # disagrees with decide(1)_0 at 12
    assert_only(trace, oracle_bundle(), "consensus-agreement", 13)


def test_validity_fires_on_unproposed_decision():
    trace = clean_trace()
    trace[12] = decide_action(0, 2)  # 2 was never proposed
    trace[13] = decide_action(1, 2)  # same value, so agreement is silent
    assert_only(trace, oracle_bundle(), "consensus-validity", 12)


def test_termination_fires_when_a_live_location_never_decides():
    trace = clean_trace()[:13]  # drop decide(1)_1
    assert_only(trace, oracle_bundle(), "consensus-termination", 13)


def test_termination_fires_on_double_decision():
    trace = clean_trace()
    trace.append(decide_action(0, 1))  # 14: location 0 decides again
    assert_only(trace, oracle_bundle(), "consensus-termination", 14)


def test_termination_excuses_crashed_locations():
    trace = clean_trace()[:13]         # location 1 never decides...
    trace.append(crash_action(1))      # ...but crashes
    report = run_oracles(trace, oracle_bundle(allowed_crashes=(1,)))
    assert report.verdict("consensus-termination").ok

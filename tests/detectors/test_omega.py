"""Tests for the Omega AFD (Section 3.3, Algorithm 1)."""

from repro.core.afd import check_afd_closure_properties
from repro.detectors.omega import Omega, OmegaAutomaton, omega_output
from repro.system.fault_pattern import FaultPattern, crash_action
from tests.conftest import run_detector

LOCS = (0, 1, 2, 3)


class TestOmegaAutomaton:
    def test_outputs_min_uncrashed(self):
        fd = OmegaAutomaton(LOCS)
        state = frozenset({0, 1})
        assert fd.output_at(2, state) == omega_output(2, 2)

    def test_crashed_location_stops_outputting(self):
        fd = OmegaAutomaton(LOCS)
        state = fd.apply(fd.initial_state(), crash_action(0))
        enabled = list(fd.enabled_locally(state))
        assert all(a.location != 0 for a in enabled)

    def test_one_task_per_location(self):
        fd = OmegaAutomaton(LOCS)
        assert len(fd.tasks()) == len(LOCS)
        assert fd.task_of(omega_output(2, 0)) == "out[2]"


class TestOmegaSpecification:
    def test_accepts_generated_traces(self):
        omega = Omega(LOCS)
        for crashes in [{}, {0: 3}, {0: 5, 3: 11}, {1: 0, 2: 0, 3: 0}]:
            t = run_detector(
                omega.automaton(), FaultPattern(crashes, LOCS), 160
            )
            result = omega.check_limit(t)
            assert result, (crashes, result.reasons)

    def test_rejects_unstable_leader(self):
        omega = Omega((0, 1))
        # Leader flip-flops forever: no suffix with a unique leader.
        t = []
        for _ in range(10):
            t += [omega_output(0, 0), omega_output(1, 0)]
            t += [omega_output(0, 1), omega_output(1, 1)]
        assert not omega.check_limit(t)

    def test_rejects_faulty_leader_in_limit(self):
        omega = Omega((0, 1))
        # Location 1 crashes, yet outputs at 0 keep naming 1 forever.
        t = [crash_action(1)] + [omega_output(0, 1)] * 10
        assert not omega.check_limit(t)

    def test_accepts_eventual_stabilization(self):
        omega = Omega((0, 1))
        # Wrong leader early, then stabilizes on 0.
        t = [omega_output(0, 1), omega_output(1, 1)]
        t += [omega_output(0, 0), omega_output(1, 0)] * 5
        assert omega.check_limit(t)

    def test_all_crashed_accepted(self):
        omega = Omega((0, 1))
        t = [
            omega_output(0, 0),
            omega_output(1, 0),
            crash_action(0),
            crash_action(1),
        ]
        assert omega.check_limit(t)

    def test_closure_properties(self):
        omega = Omega(LOCS)
        t = run_detector(
            omega.automaton(), FaultPattern({1: 7}, LOCS), 160
        )
        assert check_afd_closure_properties(
            omega, t, num_samplings=8, num_reorderings=8, seed=2
        )

    def test_well_formed_output(self):
        omega = Omega(LOCS)
        assert omega.well_formed_output(omega_output(0, 3))
        assert not omega.well_formed_output(omega_output(0, 9))

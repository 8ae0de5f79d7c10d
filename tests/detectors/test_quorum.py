"""Tests for the quorum failure detector Sigma."""

from repro.core.afd import check_afd_closure_properties
from repro.detectors.quorum import Sigma, sigma_output
from repro.system.fault_pattern import FaultPattern, crash_action
from tests.conftest import run_detector

LOCS = (0, 1, 2)


class TestSigmaIntersection:
    def test_intersecting_quorums_accepted(self):
        sigma = Sigma(LOCS)
        t = [sigma_output(0, (0, 1)), sigma_output(1, (1, 2))]
        assert sigma.check_safety(t)

    def test_disjoint_quorums_rejected(self):
        sigma = Sigma(LOCS)
        t = [sigma_output(0, (0,)), sigma_output(1, (1, 2))]
        result = sigma.check_safety(t)
        assert not result
        assert "do not intersect" in result.reasons[0]

    def test_empty_quorum_malformed(self):
        sigma = Sigma(LOCS)
        assert not sigma.well_formed_output(sigma_output(0, ()))


class TestSigmaCompleteness:
    def test_quorum_with_faulty_member_must_shrink(self):
        sigma = Sigma(LOCS)
        t = [crash_action(2)] + [sigma_output(0, (0, 1, 2))] * 5 + [
            sigma_output(1, (0, 1, 2))
        ] * 5
        assert not sigma.check_limit(t)

    def test_eventually_live_only_accepted(self):
        sigma = Sigma(LOCS)
        t = [sigma_output(0, (0, 1, 2)), sigma_output(1, (0, 1, 2))]
        t += [crash_action(2)]
        t += [sigma_output(0, (0, 1)), sigma_output(1, (0, 1))] * 4
        assert sigma.check_limit(t)


class TestSigmaEndToEnd:
    def test_generated_traces_accepted(self):
        sigma = Sigma(LOCS)
        for crashes in [{}, {2: 3}, {0: 2, 1: 8}]:
            t = run_detector(
                sigma.automaton(), FaultPattern(crashes, LOCS), 140
            )
            result = sigma.check_limit(t)
            assert result, (crashes, result.reasons)

    def test_generator_quorums_always_intersect(self):
        """Monotone crashsets make generated quorums nested (module
        docstring argument)."""
        sigma = Sigma(LOCS)
        t = run_detector(
            sigma.automaton(), FaultPattern({0: 2, 2: 6}, LOCS), 140
        )
        quorums = [
            frozenset(a.payload[0]) for a in t if a.name == "fd-sigma"
        ]
        for qa in quorums:
            for qb in quorums:
                assert qa & qb

    def test_closure_properties(self):
        sigma = Sigma(LOCS)
        t = run_detector(sigma.automaton(), FaultPattern({1: 4}, LOCS), 140)
        assert check_afd_closure_properties(sigma, t, seed=6)

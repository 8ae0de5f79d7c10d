"""Tests for the Psi^k AFD."""

import pytest

from repro.core.afd import check_afd_closure_properties
from repro.detectors.psi_k import PsiK, PsiKAutomaton, psi_k_output
from repro.system.fault_pattern import FaultPattern
from tests.conftest import run_detector

LOCS = (0, 1, 2)


class TestPsiKSpec:
    def test_well_formed(self):
        psi = PsiK(LOCS, 2)
        assert psi.well_formed_output(psi_k_output(0, (0, 1), (0, 2)))
        # Wrong leader-set size.
        assert not psi.well_formed_output(psi_k_output(0, (0, 1), (0,)))
        # Empty quorum.
        assert not psi.well_formed_output(psi_k_output(0, (), (0, 1)))

    def test_quorum_intersection_enforced(self):
        psi = PsiK(LOCS, 1)
        t = [
            psi_k_output(0, (0,), (0,)),
            psi_k_output(1, (1, 2), (0,)),
        ]
        result = psi.check_safety(t)
        assert not result
        assert "intersect" in result.reasons[0]

    def test_leadership_stabilization_required(self):
        psi = PsiK(LOCS, 1)
        t = []
        for k in range(6):
            leaders = (0,) if k % 2 == 0 else (1,)
            t += [psi_k_output(i, (0, 1, 2), leaders) for i in LOCS]
        assert not psi.check_limit(t)

    def test_good_trace_accepted(self):
        psi = PsiK(LOCS, 1)
        t = [psi_k_output(i, (0, 1, 2), (0,)) for _ in range(4) for i in LOCS]
        assert psi.check_limit(t)


class TestPsiKAutomaton:
    @pytest.mark.parametrize("k", [1, 2])
    def test_generated_traces_accepted(self, k):
        psi = PsiK(LOCS, k)
        for crashes in [{}, {2: 4}, {0: 3, 2: 8}]:
            t = run_detector(
                psi.automaton(), FaultPattern(crashes, LOCS), 160
            )
            result = psi.check_limit(t)
            assert result, (k, crashes, result.reasons)

    def test_pairs_quorum_and_leaders(self):
        fd = PsiKAutomaton(LOCS, 2)
        action = fd.output_at(1, frozenset({0}))
        quorum, leaders = action.payload
        assert quorum == (1, 2)
        assert len(leaders) == 2

    def test_closure_properties(self):
        psi = PsiK(LOCS, 2)
        t = run_detector(psi.automaton(), FaultPattern({1: 6}, LOCS), 160)
        assert check_afd_closure_properties(psi, t, seed=12)

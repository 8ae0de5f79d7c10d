"""Tests for FloodMin k-set agreement over P."""

import pytest

from repro.algorithms.kset_floodmin import (
    FloodMinProcess,
    floodmin_algorithm,
)
from repro.detectors.perfect import PerfectAutomaton
from repro.problems.kset_agreement import KSetAgreementProblem
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder


def run_floodmin(locations, k, f, crashes, proposals=None, steps=15000):
    if proposals is None:
        proposals = {i: i for i in locations}
    algorithm = floodmin_algorithm(locations, k=k, f=f)
    system = (
        SystemBuilder(locations)
        .with_algorithm(algorithm)
        .with_failure_detector(PerfectAutomaton(locations))
        .with_environment(ScriptedConsensusEnvironment(proposals))
        .build()
    )
    pattern = FaultPattern(crashes, locations)

    def settled(state):
        crashed = system.crashed(state)
        return all(
            i in crashed
            or FloodMinProcess.decision(system.process_state(state, i))
            is not None
            for i in locations
        )

    execution = system.run(
        max_steps=steps, fault_pattern=pattern, stop_when=settled
    )
    problem = KSetAgreementProblem(locations, f=f, k=k)
    events = problem.project_events(list(execution.actions))
    decisions = {
        i: FloodMinProcess.decision(
            system.process_state(execution.final_state, i)
        )
        for i in locations
        if i not in system.crashed(execution.final_state)
    }
    return problem.check_conditional(events), decisions


class TestParameters:
    def test_k_and_f_validation(self):
        with pytest.raises(ValueError):
            FloodMinProcess(0, (0, 1, 2), k=0, f=1)
        with pytest.raises(ValueError):
            FloodMinProcess(0, (0, 1, 2), k=1, f=3)

    def test_round_count(self):
        assert FloodMinProcess(0, (0, 1, 2, 3), k=2, f=2).num_rounds == 2
        assert FloodMinProcess(0, (0, 1, 2), k=1, f=2).num_rounds == 3
        assert (
            FloodMinProcess(0, (0, 1, 2), k=1, f=2, rounds=5).num_rounds == 5
        )


class TestKSetRuns:
    @pytest.mark.parametrize(
        "crashes",
        [{}, {0: 6}, {0: 6, 1: 25}],
        ids=["none", "c0", "c0c1"],
    )
    def test_k2_f2_n4(self, crashes):
        verdict, decisions = run_floodmin((0, 1, 2, 3), 2, 2, crashes)
        assert verdict, verdict.reasons
        assert decisions  # the survivors decided
        assert len(set(decisions.values())) <= 2

    def test_k1_is_consensus(self):
        verdict, decisions = run_floodmin((0, 1, 2), 1, 2, {0: 4})
        assert verdict, verdict.reasons
        assert len(set(decisions.values())) == 1

    def test_decides_minimum_when_crash_free(self):
        verdict, decisions = run_floodmin(
            (0, 1, 2), 1, 2, {}, proposals={0: 2, 1: 1, 2: 0}
        )
        assert verdict
        assert set(decisions.values()) == {0}

    def test_crash_step_sweep(self):
        """The adversary crashes the smallest-value holder at various
        points; at most k values ever survive."""
        for step in range(0, 24, 4):
            verdict, decisions = run_floodmin(
                (0, 1, 2, 3), 2, 2, {0: step}
            )
            assert verdict, (step, verdict.reasons)
            assert len(set(decisions.values())) <= 2, step

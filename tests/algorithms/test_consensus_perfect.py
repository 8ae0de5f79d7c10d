"""Tests for rotating-coordinator consensus over P (f < n)."""

import pytest

from repro.algorithms.consensus_perfect import (
    PerfectConsensusProcess,
    perfect_consensus_algorithm,
)
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.perfect import Perfect
from repro.ioa.scheduler import RandomPolicy
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


def run(
    proposals,
    crashes,
    f=2,
    locations=LOCS,
    policy=None,
    steps=6000,
    algorithm=None,
):
    return run_consensus_experiment(
        algorithm or perfect_consensus_algorithm(locations),
        Perfect(locations),
        proposals=proposals,
        fault_pattern=FaultPattern(crashes, locations),
        f=f,
        max_steps=steps,
        policy=policy,
    )


class TestCrashFree:
    def test_unanimous_proposals(self):
        result = run({0: 1, 1: 1, 2: 1}, {})
        assert result.all_live_decided
        assert set(result.decisions.values()) == {1}
        assert result.solved

    def test_mixed_proposals_agree(self):
        result = run({0: 1, 1: 0, 2: 0}, {})
        assert result.all_live_decided
        assert len(set(result.decisions.values())) == 1
        assert result.consensus_check.ok, result.consensus_check.reasons


class TestWithCrashes:
    @pytest.mark.parametrize(
        "crashes",
        [{0: 5}, {1: 12}, {2: 3}, {0: 4, 1: 25}],
        ids=["c0", "c1", "c2", "c0c1"],
    )
    def test_survivors_decide_and_agree(self, crashes):
        result = run({0: 1, 1: 0, 2: 1}, crashes)
        assert result.all_live_decided
        assert result.solved, (
            result.fd_check.reasons,
            result.consensus_check.reasons,
        )

    def test_coordinator_crash_mid_round(self):
        """Crash the round-1 coordinator early: suspicion must unblock
        the waiters (strong completeness at work)."""
        result = run({0: 0, 1: 1, 2: 1}, {0: 2})
        assert result.all_live_decided
        assert set(result.decisions.values()) <= {0, 1}
        assert result.consensus_check.ok

    def test_up_to_n_minus_1_crashes(self):
        result = run({0: 1, 1: 0, 2: 1}, {0: 3, 1: 8})
        assert result.decisions[2] is not None
        assert result.consensus_check.ok


class TestSchedulingRobustness:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedules(self, seed):
        result = run(
            {0: 1, 1: 0, 2: 0},
            {1: 9},
            policy=RandomPolicy(seed=seed),
            steps=12000,
        )
        assert result.all_live_decided
        assert result.solved


class TestLargerSystems:
    def test_five_locations(self):
        locations = (0, 1, 2, 3, 4)
        result = run(
            {0: 1, 1: 0, 2: 1, 3: 0, 4: 1},
            {0: 6, 3: 20},
            f=4,
            locations=locations,
        )
        assert result.all_live_decided
        assert result.consensus_check.ok


class TestProcessMechanics:
    def test_decision_extraction(self):
        proc = PerfectConsensusProcess(0, LOCS)
        state = proc.initial_state()
        assert PerfectConsensusProcess.decision(state) is None

    def test_quiescence_after_decision(self):
        """The process has no enabled actions once decided (needed by the
        bounded-problem and tree analyses)."""
        algorithm = perfect_consensus_algorithm(LOCS)
        result = run({0: 1, 1: 1, 2: 1}, {}, algorithm=algorithm)
        final = result.execution.final_state
        assert result.decisions == {0: 1, 1: 1, 2: 1}
        # The processes come first in the system's composition.
        for k, process in enumerate(algorithm.automata()):
            assert list(process.enabled_locally(final[k])) == []

    def test_coordinator_rotation(self):
        proc = PerfectConsensusProcess(1, LOCS)
        assert proc.coordinator(1) == 0
        assert proc.coordinator(2) == 1
        assert proc.coordinator(3) == 2

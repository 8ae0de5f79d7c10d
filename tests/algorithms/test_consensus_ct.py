"""Tests for the Chandra–Toueg ◇S consensus algorithm (f < n/2)."""

import pytest

from repro.algorithms.consensus_ct import (
    CtConsensusProcess,
    ct_consensus_algorithm,
)
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.strong import (
    EventuallyStrong,
    eventually_strong_output,
)
from repro.ioa.scheduler import RandomPolicy
from repro.system.environment import propose_action
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


def run(
    proposals, crashes, locations=LOCS, policy=None, steps=30000, algorithm=None
):
    return run_consensus_experiment(
        algorithm or ct_consensus_algorithm(locations),
        EventuallyStrong(locations),
        proposals=proposals,
        fault_pattern=FaultPattern(crashes, locations),
        f=(len(locations) - 1) // 2,
        max_steps=steps,
        policy=policy,
    )


class TestRuns:
    def test_crash_free(self):
        result = run({0: 1, 1: 0, 2: 0}, {})
        assert result.all_live_decided
        assert result.solved
        assert len(set(result.decisions.values())) == 1

    @pytest.mark.parametrize(
        "crashes", [{0: 10}, {1: 4}, {2: 25}], ids=["c0", "c1", "c2"]
    )
    def test_single_crash(self, crashes):
        result = run({0: 0, 1: 1, 2: 1}, crashes)
        assert result.all_live_decided
        assert result.solved, (
            result.fd_check.reasons,
            result.consensus_check.reasons,
        )

    def test_five_locations_two_crashes(self):
        locations = (0, 1, 2, 3, 4)
        result = run(
            {i: i % 2 for i in locations},
            {0: 8, 3: 30},
            locations=locations,
            steps=60000,
        )
        assert result.all_live_decided
        assert result.solved

    @pytest.mark.parametrize("seed", range(4))
    def test_random_schedules(self, seed):
        result = run(
            {0: 1, 1: 0, 2: 1},
            {0: 12},
            policy=RandomPolicy(seed=seed),
            steps=60000,
        )
        assert result.all_live_decided
        assert result.solved


class TestMechanics:
    def test_coordinator_rotation_wraps(self):
        proc = CtConsensusProcess(0, LOCS)
        assert proc.coordinator(1) == 0
        assert proc.coordinator(3) == 2
        assert proc.coordinator(4) == 0  # wraps, unlike the P algorithm

    def test_proposal_enters_round_1(self):
        proc = CtConsensusProcess(1, LOCS)
        state = proc.apply(proc.initial_state(), propose_action(1, 0))
        _failed, core = state
        assert core.round == 1
        assert core.estimate == 0
        # Phase 1: the estimate goes to coordinator 0.
        assert len(core.outbox) == 1
        assert core.outbox[0].payload[1] == 0  # destination

    def test_coordinator_counts_own_estimate(self):
        proc = CtConsensusProcess(0, LOCS)
        state = proc.apply(proc.initial_state(), propose_action(0, 1))
        _failed, core = state
        assert (1, 0, 1, 0) in core.estimates
        assert core.outbox == ()  # nothing to send to itself

    def test_suspicion_triggers_nack_advance(self):
        proc = CtConsensusProcess(1, LOCS)
        state = proc.apply(proc.initial_state(), propose_action(1, 0))
        # Drain the phase-1 send, then suspect coordinator 0.
        _failed, core = state
        state = proc.apply(state, core.outbox[0])
        state = proc.apply(state, eventually_strong_output(1, (0,)))
        enabled = list(proc.enabled_locally(state))
        assert enabled and enabled[0].name == "ct-advance"
        state = proc.apply(state, enabled[0])
        _failed, core = state
        assert core.round == 2
        # A nack for round 1 and the round-2 estimate are queued.
        assert any(
            a.payload[0] == ("ct-ack", 1, False) for a in core.outbox
        )

    def test_quiescent_after_decision(self):
        algorithm = ct_consensus_algorithm(LOCS)
        result = run({0: 1, 1: 1, 2: 1}, {}, algorithm=algorithm)
        final = result.execution.final_state
        assert result.decisions == {0: 1, 1: 1, 2: 1}
        # The processes come first in the system's composition.
        for k, process in enumerate(algorithm.automata()):
            assert list(process.enabled_locally(final[k])) == []

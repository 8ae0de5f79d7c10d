"""Tests for system assembly (Section 4.1, Figure 1)."""

import pytest

from repro.detectors.omega import OmegaAutomaton
from repro.algorithms.consensus_omega import (
    OmegaConsensusProcess,
    omega_consensus_algorithm,
)
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder, assemble_system


@pytest.fixture
def locations():
    return (0, 1, 2)


@pytest.fixture
def system(locations):
    return (
        SystemBuilder(locations)
        .with_algorithm(omega_consensus_algorithm(locations))
        .with_failure_detector(OmegaAutomaton(locations))
        .with_environment(ScriptedConsensusEnvironment({0: 0, 1: 1, 2: 0}))
        .build()
    )


class TestSystemBuilder:
    def test_distinct_locations_required(self):
        with pytest.raises(ValueError):
            SystemBuilder((0, 0, 1))

    def test_algorithm_locations_must_match(self, locations):
        with pytest.raises(ValueError):
            SystemBuilder((0, 1)).with_algorithm(
                omega_consensus_algorithm((0, 1, 2))
            )

    def test_components_assembled(self, system, locations):
        names = [c.name for c in system.composition.components]
        # n processes + n(n-1) channels + crash + FD + env
        assert len([n for n in names if n.startswith("consOmega")]) == 3
        assert len([n for n in names if n.startswith("chan")]) == 6
        assert "crash" in names
        assert "FD-Omega" in names
        assert "envScripted" in names

    def test_assemble_system_helper(self, locations):
        system = assemble_system(
            locations,
            algorithm=omega_consensus_algorithm(locations),
            failure_detector=OmegaAutomaton(locations),
        )
        assert system.algorithm is not None
        assert system.failure_detector is not None
        assert system.environment is None


class TestSystemAccessors:
    def test_initial_accessors(self, system, locations):
        state = system.composition.initial_state()
        assert system.channels_empty(state)
        assert system.crashed(state) == frozenset()
        for i in locations:
            failed, _core = system.process_state(state, i)
            assert not failed

    def test_channel_state_lookup(self, system):
        state = system.composition.initial_state()
        assert system.channel_state(state, 0, 1) == ()
        with pytest.raises(KeyError):
            system.channel_state(state, 0, 0)

    def test_run_with_fault_pattern(self, system, locations):
        fp = FaultPattern({2: 3}, locations)
        execution = system.run(max_steps=200, fault_pattern=fp)
        assert system.crashed(execution.final_state) == frozenset({2})
        failed, _ = system.process_state(execution.final_state, 2)
        assert failed

    def test_run_to_decision(self, system, locations):
        def all_decided(state):
            return all(
                OmegaConsensusProcess.decision(
                    system.process_state(state, i)
                )
                is not None
                for i in locations
            )

        execution = system.run(max_steps=3000, stop_when=all_decided)
        decisions = {
            OmegaConsensusProcess.decision(
                system.process_state(execution.final_state, i)
            )
            for i in locations
        }
        assert len(decisions) == 1
        assert decisions.pop() in (0, 1)

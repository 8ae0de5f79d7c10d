"""Tests for the generic detector relay (reduction engine)."""

import pytest

from repro.algorithms.relay import TransformRelayProcess, relay_algorithm
from repro.detectors.omega import Omega, omega_output
from repro.detectors.perfect import Perfect, perfect_output
from repro.ioa.actions import Action
from repro.system.fault_pattern import crash_action

LOCS = (0, 1, 2)


def leader_transform(action: Action) -> Action:
    suspects = set(action.payload[0])
    leader = min(i for i in LOCS if i not in suspects)
    return Action("fd-omega", action.location, (leader,))


class TestTransformRelayProcess:
    def setup_method(self):
        self.relay = TransformRelayProcess(
            0, Perfect(LOCS), Omega(LOCS), leader_transform
        )

    def test_input_enqueues_transformed(self):
        state = self.relay.apply(
            self.relay.initial_state(), perfect_output(0, (1,))
        )
        _failed, queue = state
        assert queue == (omega_output(0, 0),)

    def test_emission_dequeues(self):
        state = self.relay.apply(
            self.relay.initial_state(), perfect_output(0, (1,))
        )
        enabled = list(self.relay.enabled_locally(state))
        assert enabled == [omega_output(0, 0)]
        state = self.relay.apply(state, enabled[0])
        _failed, queue = state
        assert queue == ()

    def test_other_location_inputs_ignored(self):
        state = self.relay.apply(
            self.relay.initial_state(), perfect_output(1, (2,))
        )
        _failed, queue = state
        assert queue == ()

    def test_fifo_preserved(self):
        state = self.relay.initial_state()
        state = self.relay.apply(state, perfect_output(0, ()))
        state = self.relay.apply(state, perfect_output(0, (1,)))
        enabled = list(self.relay.enabled_locally(state))
        # First input (suspecting nobody) maps to leader 0.
        assert enabled == [omega_output(0, 0)]

    def test_crash_disables_emission(self):
        state = self.relay.apply(
            self.relay.initial_state(), perfect_output(0, ())
        )
        state = self.relay.apply(state, crash_action(0))
        assert list(self.relay.enabled_locally(state)) == []

    def test_cross_location_transform_rejected(self):
        bad = TransformRelayProcess(
            0,
            Perfect(LOCS),
            Omega(LOCS),
            lambda a: Action("fd-omega", 1, (0,)),
        )
        with pytest.raises(ValueError, match="across locations"):
            bad.apply(bad.initial_state(), perfect_output(0, ()))

    def test_none_transform_drops(self):
        dropping = TransformRelayProcess(
            0, Perfect(LOCS), Omega(LOCS), lambda a: None
        )
        state = dropping.apply(
            dropping.initial_state(), perfect_output(0, ())
        )
        _failed, queue = state
        assert queue == ()


class TestRelayAlgorithm:
    def test_one_relay_per_location(self):
        alg = relay_algorithm(
            Perfect(LOCS), Omega(LOCS), lambda i: leader_transform
        )
        assert alg.locations == LOCS
        for i in LOCS:
            assert alg[i].location == i

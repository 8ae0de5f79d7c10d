"""Tests for valid sequences (Section 3.2)."""

from repro.detectors.omega import omega_output
from repro.core.validity import (
    check_no_outputs_after_crash,
    faulty_locations,
    first_crash_index,
    is_valid_finite,
    live_locations,
    outputs_at,
    split_crash_and_outputs,
    stabilized_suffix,
)
from repro.system.fault_pattern import crash_action

import pytest

LOCS = (0, 1, 2)


def valid_trace():
    return [
        omega_output(0, 0),
        omega_output(1, 0),
        omega_output(2, 0),
        crash_action(2),
        omega_output(0, 0),
        omega_output(1, 0),
    ]


class TestLivenessSets:
    def test_faulty(self):
        assert faulty_locations(valid_trace()) == {2}

    def test_live(self):
        assert live_locations(valid_trace(), LOCS) == {0, 1}

    def test_crash_free(self):
        t = [omega_output(0, 0)]
        assert faulty_locations(t) == frozenset()
        assert live_locations(t, LOCS) == {0, 1, 2}

    def test_first_crash_index(self):
        assert first_crash_index(valid_trace(), 2) == 3
        assert first_crash_index(valid_trace(), 0) is None

    def test_outputs_at(self):
        assert len(outputs_at(valid_trace(), 0)) == 2
        assert len(outputs_at(valid_trace(), 2)) == 1


class TestValidityCondition1:
    def test_accepts_valid(self):
        assert check_no_outputs_after_crash(valid_trace())

    def test_rejects_output_after_crash(self):
        t = valid_trace() + [omega_output(2, 0)]
        report = check_no_outputs_after_crash(t)
        assert not report
        assert "crash_2" in report.reasons[0]

    def test_output_at_other_location_fine(self):
        t = [crash_action(2), omega_output(0, 0)]
        assert check_no_outputs_after_crash(t)


class TestValidityCondition2:
    def test_live_needs_outputs(self):
        t = [omega_output(0, 0)]
        report = is_valid_finite(t, LOCS, min_live_outputs=1)
        assert not report  # locations 1, 2 have no outputs
        assert any("live location" in r for r in report.reasons)

    def test_threshold(self):
        t = valid_trace()
        assert is_valid_finite(t, LOCS, min_live_outputs=2)
        assert not is_valid_finite(t, LOCS, min_live_outputs=3)

    def test_faulty_location_not_required_to_output(self):
        t = [crash_action(2), omega_output(0, 0), omega_output(1, 0)]
        assert is_valid_finite(t, LOCS, min_live_outputs=1)

    def test_reasons_name_both_conditions_in_order(self):
        # Condition (1) fails at index 2; condition (2) then names each
        # short live location, in live-set order.
        t = [omega_output(0, 0), crash_action(2), omega_output(2, 0)]
        report = is_valid_finite(t, LOCS, min_live_outputs=2)
        assert report.reasons == [
            "event fd-omega(0)_2 at index 2 occurs after crash_2",
            "live location 0 has only 1 output events (needed >= 2)",
            "live location 1 has only 0 output events (needed >= 2)",
        ]


class TestHelpers:
    def test_stabilized_suffix(self):
        t = list(range(10))
        assert stabilized_suffix(t, 0.5) == list(range(5, 10))
        assert stabilized_suffix(t, 1.0) == t
        with pytest.raises(ValueError):
            stabilized_suffix(t, 0)

    def test_split(self):
        crashes, outputs = split_crash_and_outputs(valid_trace())
        assert len(crashes) == 1
        assert len(outputs) == 5

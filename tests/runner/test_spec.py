"""ExperimentSpec: validation, resolution, and single-run execution."""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.runner import ExperimentSpec, run_spec
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestValidation:
    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="problem"):
            ExperimentSpec(detector="omega", locations=LOCS, problem="nope")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ExperimentSpec(
                detector="omega",
                locations=LOCS,
                problem="detector-trace",
                policy="chaotic",
            )

    def test_consensus_requires_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            ExperimentSpec(detector="omega", locations=LOCS)

    def test_unknown_detector_name_lists_valid_names(self):
        spec = ExperimentSpec(
            detector="omegaz", locations=LOCS, problem="detector-trace"
        )
        with pytest.raises(ValueError) as exc:
            spec.resolve_afd()
        assert "omega" in str(exc.value).lower()

    def test_auto_label(self):
        spec = ExperimentSpec(
            detector="omega", locations=LOCS, problem="detector-trace", seed=9
        )
        assert "detector-trace" in spec.label
        assert "s9" in spec.label


class TestResolution:
    def test_detector_kwargs_reach_family(self):
        spec = ExperimentSpec(
            detector="omega-k",
            detector_kwargs={"k": 2},
            locations=LOCS,
            problem="detector-trace",
        )
        afd = spec.resolve_afd()
        assert getattr(afd, "k", None) == 2

    def test_fault_pattern_from_mapping_and_instance(self):
        mapping = ExperimentSpec(
            detector="omega",
            locations=LOCS,
            problem="detector-trace",
            crashes={1: 4},
        ).fault_pattern()
        assert isinstance(mapping, FaultPattern)
        explicit = FaultPattern({1: 4}, LOCS)
        spec = ExperimentSpec(
            detector="omega",
            locations=LOCS,
            problem="detector-trace",
            crashes=explicit,
        )
        assert spec.fault_pattern() is explicit

    def test_default_proposals_alternate(self):
        spec = ExperimentSpec(
            algorithm=omega_consensus_algorithm,
            detector="omega",
            locations=LOCS,
        )
        assert spec.effective_proposals() == {0: 0, 1: 1, 2: 0}

    def test_spec_is_picklable(self):
        spec = ExperimentSpec(
            algorithm=omega_consensus_algorithm,
            detector="omega",
            locations=LOCS,
            crashes={0: 10},
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestRun:
    def test_consensus_run(self):
        result = ExperimentSpec(
            algorithm=omega_consensus_algorithm,
            detector="omega",
            locations=LOCS,
            proposals={0: 1, 1: 0, 2: 0},
            crashes={0: 10},
            f=1,
            max_steps=30_000,
        ).run()
        assert result.ok and result.solved and result.all_live_decided
        assert result.steps > 0 and result.messages_sent > 0
        assert set(result.decisions) == {1, 2}

    def test_detector_trace_run(self):
        result = run_spec(
            ExperimentSpec(
                detector="p",
                locations=LOCS,
                problem="detector-trace",
                crashes={2: 5},
                max_steps=80,
            )
        )
        assert result.ok and result.fd_ok

    def test_uninstrumented_run_has_no_trace(self):
        result = ExperimentSpec(
            detector="p",
            locations=LOCS,
            problem="detector-trace",
            max_steps=40,
        ).run()
        assert result.trace is None

    def test_instrumented_run_has_canonical_trace(self):
        result = ExperimentSpec(
            detector="p",
            locations=LOCS,
            problem="detector-trace",
            max_steps=40,
            instrument=True,
        ).run()
        assert result.trace
        # Events record what happened, not when: no wall-clock field.
        assert all('"t":' not in line for line in result.trace)
        assert all("dur_s" not in line for line in result.trace)

    def test_meta_is_json_ready(self):
        import json

        spec = ExperimentSpec(
            algorithm=omega_consensus_algorithm,
            detector="omega",
            locations=LOCS,
            crashes={0: 10},
        )
        json.dumps(spec.meta())

    def test_row_shape(self):
        result = ExperimentSpec(
            detector="p",
            locations=LOCS,
            problem="detector-trace",
            max_steps=40,
        ).run()
        row = result.row()
        assert row[0] == result.label
        assert len(row) == 5

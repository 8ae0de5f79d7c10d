"""The instrument= keyword: a StepProfiler or None, and the removed
spellings.

A run needs no observer: ``Scheduler.run`` returns the execution, the
whole record of the run, and ``TraceRecorder.record_run`` reads the
canonical trace from it.  So ``instrument=`` takes only a profiler, on
the two surfaces that run a scheduler: ``Scheduler`` and ``System.run``.
"""

from __future__ import annotations

import pytest

import repro.api
import repro.obs
from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.omega import OmegaAutomaton
from repro.ioa.scheduler import Scheduler
from repro.obs.prof import PHASES, StepProfiler
from repro.obs.trace import TraceRecorder
from repro.runner.spec import ExperimentSpec, run_spec
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2)


class TestSchedulerInstrument:
    def test_observer_kwarg_removed(self):
        # The pre-1.2 spelling went through a deprecation cycle and was
        # removed in 1.5.0; it must fail loudly, not silently ignore.
        with pytest.raises(TypeError):
            Scheduler(observer=TraceRecorder())

    def test_takes_a_profiler(self):
        prof = StepProfiler()
        assert Scheduler(instrument=prof).profiler is prof

    @pytest.mark.parametrize(
        "value",
        [TraceRecorder(), (StepProfiler(), None), 42],
        ids=["recorder", "tuple", "junk"],
    )
    def test_anything_else_names_the_replacements(self, value):
        with pytest.raises(TypeError) as raised:
            Scheduler(instrument=value)
        message = str(raised.value)
        assert "ExperimentSpec(instrument=True)" in message
        assert "TraceRecorder.record_run" in message


class TestSystemRunInstrument:
    def test_profiler_books_the_run(self):
        system = (
            SystemBuilder(LOCS)
            .with_algorithm(omega_consensus_algorithm(LOCS))
            .with_failure_detector(OmegaAutomaton(LOCS))
            .build()
        )
        prof = StepProfiler()
        execution = system.run(max_steps=50, instrument=prof)
        assert prof.runs == 1
        assert prof.steps == len(execution) == 50

    def test_builder_takes_no_instrumentation(self):
        builder = SystemBuilder(LOCS)
        for name in ("with_observer", "with_metrics", "with_instrumentation"):
            assert not hasattr(builder, name)


class TestRemovedNames:
    @pytest.mark.parametrize("module", [repro.obs, repro.api])
    @pytest.mark.parametrize(
        "name", ["Instrumentation", "coerce_instrument", "Observer"]
    )
    def test_observer_names_are_gone(self, module, name):
        assert not hasattr(module, name)

    def test_run_spec_takes_no_instrument(self):
        spec = ExperimentSpec(
            problem="detector-trace", detector="omega", locations=LOCS
        )
        with pytest.raises(TypeError):
            run_spec(spec, instrument=StepProfiler())

    def test_run_consensus_experiment_takes_no_instrument(self):
        with pytest.raises(TypeError):
            run_consensus_experiment(
                omega_consensus_algorithm(LOCS),
                "omega",
                proposals={0: 1, 1: 0, 2: 1},
                fault_pattern=FaultPattern({}, LOCS),
                f=1,
                instrument=StepProfiler(),
            )

    def test_record_steps_is_gone(self):
        with pytest.raises(TypeError):
            ExperimentSpec(detector="omega", locations=LOCS, record_steps=True)
        with pytest.raises(TypeError):
            TraceRecorder(record_steps=True)

    def test_profiler_has_no_observe_phase(self):
        assert "observe" not in PHASES
        assert not hasattr(StepProfiler(), "observer")

"""The unified instrument= convention: coercion and the 1.5.0 removals."""

from __future__ import annotations

import pytest

from repro.ioa.scheduler import Scheduler
from repro.obs.instrument import Instrumentation, coerce_instrument
from repro.obs.prof import StepProfiler
from repro.obs.trace import TraceRecorder
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2)


class TestCoerce:
    def test_none(self):
        bundle = coerce_instrument(None)
        assert bundle.observer is None and bundle.profiler is None
        assert not bundle

    def test_observer(self):
        rec = TraceRecorder()
        bundle = coerce_instrument(rec)
        assert bundle.observer is rec and bundle.profiler is None

    def test_tuple_merges(self):
        rec, prof = TraceRecorder(), StepProfiler()
        bundle = coerce_instrument((rec, prof))
        assert bundle.observer is rec and bundle.profiler is prof

    def test_nested_with_nones(self):
        prof = StepProfiler()
        bundle = coerce_instrument((None, (prof, None)))
        assert bundle.profiler is prof

    def test_passthrough(self):
        inst = Instrumentation(profiler=StepProfiler())
        assert coerce_instrument(inst) is inst

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            coerce_instrument(42)

    def test_rejects_junk_names_profiler(self):
        with pytest.raises(TypeError, match="StepProfiler"):
            coerce_instrument(42)

    def test_profiler_alone(self):
        prof = StepProfiler()
        bundle = coerce_instrument(prof)
        assert bundle.profiler is prof
        assert bundle.observer is None
        assert bundle

    def test_first_profiler_wins_in_merge(self):
        first, second = StepProfiler(), StepProfiler()
        bundle = coerce_instrument((first, second))
        assert bundle.profiler is first


class TestSchedulerInstrument:
    def test_observer_kwarg_removed(self):
        # The pre-1.2 spelling went through a deprecation cycle and was
        # removed in 1.5.0; it must fail loudly, not silently ignore.
        with pytest.raises(TypeError):
            Scheduler(observer=TraceRecorder())

    def test_instrument_kwarg_no_warning(self, recwarn):
        Scheduler(instrument=TraceRecorder())
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

    def test_observer_and_profiler_halves_together(self):
        rec, prof = TraceRecorder(), StepProfiler()
        scheduler = Scheduler(instrument=(rec, prof))
        assert scheduler.observer is rec
        assert scheduler.profiler is prof


class TestBuilderInstrument:
    def test_with_observer_removed(self):
        assert not hasattr(SystemBuilder(LOCS), "with_observer")

    def test_with_metrics_removed(self):
        assert not hasattr(SystemBuilder(LOCS), "with_metrics")

    def test_with_instrumentation_sets_both(self, recwarn):
        rec, prof = TraceRecorder(), StepProfiler()
        builder = SystemBuilder(LOCS).with_instrumentation((rec, prof))
        assert builder.observer is rec
        assert builder.profiler is prof
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

"""The scheduler's notes on a run, and injection error paths.

``Scheduler.run`` notes on the execution which steps an injection
supplied (``Execution.injected``) and why the run ended
(``Execution.reason``): ``"max-steps"``, ``"quiescent"`` or
``"stopped"``.  Disabled injections — both at their due step and when
fast-forwarded past a quiescent state — must raise, not be dropped.
Both engines run the one step loop in ``Scheduler.run``; each class
runs again on the compiled engine through a subclass that sets
``compiled = True``, with the same expectations and messages.
"""

import pytest

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.scheduler import Injection, Scheduler
from repro.ioa.signature import FiniteActionSet, Signature

IN_A = Action("in-a", 0)
WORK = Action("work", 0)
NEVER = Action("never", 0)


def machine(limit=None):
    """Counts inputs; WORK is enabled until ``limit`` events (or forever).

    NEVER is an output that is never enabled, so injecting it exercises
    the scheduler's disabled-injection error paths.
    """
    def enabled(s):
        if limit is not None and len(s) >= limit:
            return []
        return [WORK]

    return FunctionalAutomaton(
        name="m",
        signature=Signature(
            inputs=FiniteActionSet([IN_A]),
            outputs=FiniteActionSet([WORK, NEVER]),
        ),
        initial=(),
        transition=lambda s, a: s + (a.name,),
        enabled_fn=enabled,
    )


class _OnEngine:
    """The engine a test class runs on: ``None`` is the process default
    (interpreted); the ``...Compiled`` subclasses below set ``True``."""

    compiled = None

    def scheduler(self, **kwargs):
        return Scheduler(compiled=self.compiled, **kwargs)


class TestRunNotes(_OnEngine):
    def test_injected_steps_and_max_steps(self):
        execution = self.scheduler().run(
            machine(), 3, injections=[Injection(1, IN_A)]
        )
        assert [a.name for a in execution.actions] == ["work", "in-a", "work"]
        assert execution.injected == (1,)
        assert execution.reason == "max-steps"

    def test_reason_quiescent(self):
        execution = self.scheduler().run(machine(limit=2), 10)
        assert (len(execution), execution.reason) == (2, "quiescent")
        assert execution.injected == ()

    def test_reason_stopped(self):
        execution = self.scheduler().run(
            machine(), 10, stop_when=lambda s: len(s) >= 4
        )
        # stop_when is checked before the step is resolved, so the
        # stopped step is not counted.
        assert (len(execution), execution.reason) == (4, "stopped")

    def test_fast_forwarded_injection_noted_where_it_fired(self):
        execution = self.scheduler().run(
            machine(limit=1), 10, injections=[Injection(5, IN_A)]
        )
        assert [a.name for a in execution.actions] == ["work", "in-a"]
        assert execution.injected == (1,)
        assert execution.reason == "quiescent"

    def test_instrument_takes_only_a_profiler(self):
        with pytest.raises(TypeError, match="TraceRecorder.record_run"):
            self.scheduler(instrument=object())


class TestDisabledInjectionRaises(_OnEngine):
    def test_due_injection_not_enabled_raises(self):
        with pytest.raises(ValueError, match="not enabled"):
            self.scheduler().run(machine(), 5, injections=[Injection(2, NEVER)])

    def test_fast_forwarded_injection_not_enabled_raises(self):
        # Local work dries up at step 1; the scheduler fast-forwards to
        # the pending injection, which is not enabled either.
        with pytest.raises(ValueError, match="fast-forwarded"):
            self.scheduler().run(
                machine(limit=1), 10, injections=[Injection(7, NEVER)]
            )


class TestRunNotesCompiled(TestRunNotes):
    compiled = True


class TestDisabledInjectionRaisesCompiled(TestDisabledInjectionRaises):
    compiled = True

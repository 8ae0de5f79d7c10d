"""Scheduler observer hooks and injection error paths.

The observer contract: ``on_run_start`` exactly once, then per fired
event ``on_step_scheduled`` followed by ``on_action`` (with a correct
``injected`` flag), then ``on_run_end`` exactly once with the stop
reason.  Disabled injections — both at their due step and when
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
from repro.obs.trace import Observer

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


class RecordingObserver(Observer):
    def __init__(self):
        self.calls = []

    def on_run_start(self, automaton, max_steps):
        self.calls.append(("run-start", automaton.name, max_steps))

    def on_step_scheduled(self, step):
        self.calls.append(("step", step))

    def on_action(self, step, action, injected):
        self.calls.append(("action", step, action.name, injected))

    def on_run_end(self, steps, reason):
        self.calls.append(("run-end", steps, reason))


class _OnEngine:
    """The engine a test class runs on: ``None`` is the process default
    (interpreted); the ``...Compiled`` subclasses below set ``True``."""

    compiled = None

    def scheduler(self, **kwargs):
        return Scheduler(compiled=self.compiled, **kwargs)


class TestObserverHooks(_OnEngine):
    def test_notification_order_and_flags(self):
        obs = RecordingObserver()
        self.scheduler(instrument=obs).run(
            machine(), 3, injections=[Injection(1, IN_A)]
        )
        assert obs.calls == [
            ("run-start", "m", 3),
            ("step", 0),
            ("action", 0, "work", False),
            ("step", 1),
            ("action", 1, "in-a", True),
            ("step", 2),
            ("action", 2, "work", False),
            ("run-end", 3, "max-steps"),
        ]

    def test_run_end_reason_quiescent(self):
        obs = RecordingObserver()
        self.scheduler(instrument=obs).run(machine(limit=2), 10)
        assert obs.calls[-1] == ("run-end", 2, "quiescent")

    def test_run_end_reason_stopped(self):
        obs = RecordingObserver()
        self.scheduler(instrument=obs).run(
            machine(), 10, stop_when=lambda s: len(s) >= 4
        )
        assert obs.calls[-1] == ("run-end", 4, "stopped")
        # The stopped step was never scheduled: stop_when is checked first.
        assert ("step", 4) not in obs.calls

    def test_no_observer_produces_same_execution(self):
        plain = self.scheduler().run(machine(), 5, injections=[Injection(2, IN_A)])
        observed = self.scheduler(instrument=RecordingObserver()).run(
            machine(), 5, injections=[Injection(2, IN_A)]
        )
        assert list(plain.actions) == list(observed.actions)

    def test_run_observer_fast_forwarded_injection_flagged(self):
        obs = RecordingObserver()
        self.scheduler(instrument=obs).run(
            machine(limit=1), 10, injections=[Injection(5, IN_A)]
        )
        actions = [c for c in obs.calls if c[0] == "action"]
        assert actions == [
            ("action", 0, "work", False),
            ("action", 1, "in-a", True),
        ]


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

    def test_error_does_not_fire_run_end(self):
        obs = RecordingObserver()
        with pytest.raises(ValueError):
            self.scheduler(instrument=obs).run(
                machine(), 5, injections=[Injection(0, NEVER)]
            )
        assert not any(c[0] == "run-end" for c in obs.calls)


class TestObserverHooksCompiled(TestObserverHooks):
    compiled = True


class TestDisabledInjectionRaisesCompiled(TestDisabledInjectionRaises):
    compiled = True

"""Adversarial, event-triggered crash injection.

A :class:`~repro.system.fault_pattern.FaultPattern` crashes locations at
*fixed global steps*, chosen before the run starts.  The
:class:`~repro.faults.plan.CrashRule` triggers of a fault plan need a
stronger adversary — one that reacts to the run ("crash the current
Omega leader the step after it is first elected").

:class:`CrashRuleController` implements that adversary inside the
scheduling policy: :meth:`~CrashRuleController.wrap` turns any
:class:`~repro.ioa.scheduler.SchedulerPolicy` into one that, each turn,

* fires the due crash, if any, instead of consulting the wrapped
  policy.  A crash of a location of the system is enabled in every
  state (the crash automaton has no fairness obligation), so preempting
  one turn never violates the scheduler's contract; a crash that no
  component owns is rejected with a :class:`ValueError`;
* otherwise asks the wrapped policy and *arms* the rules whose trigger
  is the action it chose (recording the target location and the step
  the crash becomes due).

Every trigger — a send, a decide, a failure-detector output — is a
locally controlled action, so it fires only when the policy chose it.
The only actions that bypass the policy are a fault pattern's crash
injections (Section 2.4: crashes are free inputs the adversary
schedules), and those trigger nothing.  So the policy sees every
trigger, and the run stays deterministic: rule firing is a pure
function of the trace prefix.

Fired crashes are recorded on :attr:`CrashRuleController.fired` (and as
ordinary ``crash`` events in any attached trace), so oracles can check
crash validity against what the adversary actually did.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.faults.plan import CrashRule
from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, State
from repro.ioa.scheduler import RoundRobinPolicy, SchedulerPolicy
from repro.system.channel import SEND
from repro.system.environment import DECIDE
from repro.system.fault_pattern import crash_action


class CrashRuleController:
    """Arms :class:`CrashRule` crashes from a run's actions and fires
    them when due.

    Parameters
    ----------
    rules:
        The rules to enforce (typically ``plan.crash_rules``).
    fd_output_name:
        The failure detector's output action name (e.g. ``"fd-omega"``);
        required for ``"on-first-fd-output"`` rules to see their trigger.

    Notes
    -----
    Drive the run with the policy :meth:`wrap` returns; the system
    builder's fault-plan wiring does so.  Each rule fires at most once.
    A rule whose trigger never occurs — or that comes due only after the
    run ends or quiesces — never fires; :attr:`fired` records what
    actually happened as ``(step, location, rule)`` triples.
    """

    def __init__(
        self,
        rules: Sequence[CrashRule],
        fd_output_name: Optional[str] = None,
    ):
        self.rules: Tuple[CrashRule, ...] = tuple(rules)
        self.fd_output_name = fd_output_name
        self.reset()

    def reset(self) -> None:
        """Forget the previous run; arm the ``"at-step"`` rules."""
        self.fired: List[Tuple[int, int, CrashRule]] = []
        self._done = set()
        self._send_counts = {}
        #: rule index -> (step the crash becomes due, target location)
        self._armed = {
            idx: (rule.param, rule.location)
            for idx, rule in enumerate(self.rules)
            if rule.trigger == "at-step"
        }

    # -- Trigger detection ---------------------------------------------------

    def arm(self, step: int, action: Action) -> None:
        """Arm the rules whose trigger is ``action``, fired at ``step``."""
        name = action.name
        if name == SEND:
            count = self._send_counts.get(action.location, 0) + 1
            self._send_counts[action.location] = count
            for idx, rule in enumerate(self.rules):
                if (
                    rule.trigger == "on-send-count"
                    and self._idle(idx)
                    and rule.location == action.location
                    and count == rule.param
                ):
                    self._armed[idx] = (step + rule.delay, rule.location)
        elif name == DECIDE:
            for idx, rule in enumerate(self.rules):
                if rule.trigger == "on-first-decision" and self._idle(idx):
                    target = (
                        rule.location
                        if rule.location is not None
                        else action.location
                    )
                    self._armed[idx] = (step + rule.delay, target)
        elif self.fd_output_name is not None and name == self.fd_output_name:
            for idx, rule in enumerate(self.rules):
                if rule.trigger == "on-first-fd-output" and self._idle(idx):
                    target = rule.location
                    if target is None:
                        # The payload head of an fd output is the detector's
                        # verdict; for Omega-style detectors it is the
                        # elected leader — the canonical adversary target.
                        target = (
                            action.payload[0]
                            if action.payload
                            else action.location
                        )
                    self._armed[idx] = (step + rule.delay, target)

    def _idle(self, idx: int) -> bool:
        return idx not in self._armed and idx not in self._done

    # -- Firing --------------------------------------------------------------

    def due(self, step: int) -> Optional[Action]:
        """The crash action due at ``step``, if any (consumes the rule)."""
        for idx in sorted(self._armed):
            fire_step, target = self._armed[idx]
            if fire_step is not None and target is not None and fire_step <= step:
                del self._armed[idx]
                self._done.add(idx)
                self.fired.append((step, target, self.rules[idx]))
                return crash_action(target)
        return None

    def crashed_locations(self) -> Tuple[int, ...]:
        """Locations this controller has crashed, in firing order."""
        return tuple(target for _step, target, _rule in self.fired)

    def wrap(self, policy: Optional[SchedulerPolicy] = None) -> SchedulerPolicy:
        """A policy that fires due crashes, else defers to ``policy``
        (default round-robin — the scheduler's own default)."""
        return _RuleDrivenPolicy(self, policy or RoundRobinPolicy())


class _RuleDrivenPolicy(SchedulerPolicy):
    """Fires the controller's due crash; otherwise the inner policy runs,
    and its choice arms the controller's rules.

    The scheduler applies policy-chosen actions directly, so the due
    crash is checked here, as the scheduler checks an injection: it must
    be enabled, that is, its target must be a location of the system.
    When the inner policy has nothing enabled the turn still returns the
    due crash, so an armed rule can fire into an otherwise-quiescent
    system.
    """

    def __init__(self, controller: CrashRuleController, inner: SchedulerPolicy):
        self.controller = controller
        self.inner = inner

    def reset(self) -> None:
        self.controller.reset()
        self.inner.reset()

    def choose(
        self, automaton: Automaton, state: State, step: int
    ) -> Optional[Action]:
        controller = self.controller
        due = controller.due(step)
        if due is not None:
            if not automaton.enabled(state, due):
                _step, target, rule = controller.fired[-1]
                raise ValueError(
                    f"{rule} targets {target!r}, which is not a location "
                    f"of the system ({due} is not enabled at step {step})"
                )
            return due
        chosen = self.inner.choose(automaton, state, step)
        if chosen is not None:
            controller.arm(step, chosen)
        return chosen

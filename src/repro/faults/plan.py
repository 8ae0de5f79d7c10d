"""Fault plans: seeded, picklable descriptions of injected faults.

The paper's model (Section 2, Figure 1) assumes reliable FIFO channels
and a crash automaton that only stops processes.  A :class:`FaultPlan`
describes a deliberate departure from that model: per-channel message
drop/duplicate/reorder/delay faults (probabilistic or scheduled on
explicit send indices) plus adversarial crash rules that trigger on run
events (e.g. "crash the current Omega leader the step after it is first
elected").

Plans are plain frozen dataclasses of hashable values, so they pickle,
compare by value, and ship to ``multiprocessing`` workers unchanged.
Every probabilistic decision a plan induces is derived from its seed via
:func:`repro.runner.seeds.derive_seed` — a pure function of the seed and
the decision's coordinates — so a chaos run is exactly as reproducible
as a fault-free one: same plan, same trace, in any process on any
machine.

A plan whose seed is ``None`` is *unbound*: the experiment engine binds
it to the run's seed (``derive_seed(spec.seed, "fault-plan")``), so a
seed sweep automatically varies the injected faults per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Optional, Tuple

from repro.runner.seeds import derive_seed

#: Recognized crash-rule triggers (see :class:`CrashRule`).
CRASH_TRIGGERS = (
    "at-step",
    "on-first-fd-output",
    "on-first-decision",
    "on-send-count",
)


@dataclass(frozen=True)
class ChannelFaults:
    """The fault configuration of one channel (or the plan's default).

    Probabilities are per *send* event: each send on the channel draws
    its fate (drop / duplicate / reorder / delay) independently and
    deterministically from the plan seed and the send's index.  The
    ``*_sends`` tuples schedule the same faults on explicit 0-based send
    indices, for tests and adversarial scenarios that need a fault at an
    exact point.

    ``max_delay`` bounds the delay (in channel-local tick steps) a
    delayed message waits before becoming deliverable; delivery order is
    never changed by delays (head-of-line blocking), so a pure delay
    fault preserves every channel-integrity property and only costs
    steps.
    """

    drop_p: float = 0.0
    duplicate_p: float = 0.0
    reorder_p: float = 0.0
    delay_p: float = 0.0
    max_delay: int = 0
    drop_sends: Tuple[int, ...] = ()
    duplicate_sends: Tuple[int, ...] = ()
    reorder_sends: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_p", "duplicate_p", "reorder_p", "delay_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.delay_p > 0.0 and self.max_delay < 1:
            raise ValueError("delay_p > 0 requires max_delay >= 1")
        for name in ("drop_sends", "duplicate_sends", "reorder_sends"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def is_inert(self) -> bool:
        """Whether this configuration can never inject a fault."""
        return (
            self.drop_p == 0.0
            and self.duplicate_p == 0.0
            and self.reorder_p == 0.0
            and self.delay_p == 0.0
            and not self.drop_sends
            and not self.duplicate_sends
            and not self.reorder_sends
        )


@dataclass(frozen=True)
class CrashRule:
    """An adversarial, event-triggered crash.

    Unlike a :class:`~repro.system.fault_pattern.FaultPattern` entry
    (a crash at a fixed global step), a rule *arms* when its trigger
    event occurs in the run and fires ``delay`` steps later, through the
    scheduler policy (see
    :class:`~repro.faults.adversary.CrashRuleController`).

    Triggers
    --------
    ``"at-step"``
        Arms at run start; fires at step ``param``.  ``location`` is
        required (equivalent to a fault-pattern entry, provided so a
        plan can be self-contained).
    ``"on-first-fd-output"``
        Arms on the first failure-detector output of the run.  The
        target defaults to the output's payload head — for Omega-style
        detectors, the elected leader — so the canonical adversary
        "crash the leader the step after it is first elected" is
        ``CrashRule("on-first-fd-output")``.  Without ``location`` the
        rule needs a detector whose payload head is a location; for
        suspect-set detectors (P, ◇P, Q, W, ...) it is a tuple, and
        the run raises :class:`ValueError` when the rule fires.
    ``"on-first-decision"``
        Arms on the first ``decide`` event; target defaults to the
        decider.  Exercises crash-validity and agreement under the
        worst-case "first decider dies immediately" schedule.
    ``"on-send-count"``
        Arms when ``location`` has performed ``param`` sends (crash a
        process mid-protocol).  ``location`` and ``param`` required.

    ``delay`` must be >= 1: the crash fires strictly after the step of
    the trigger event.  The target must be a location of the system:
    a crash no component owns is not enabled, and the controller's
    policy raises :class:`ValueError` instead of firing it.
    """

    trigger: str
    location: Optional[int] = None
    param: Optional[int] = None
    delay: int = 1

    def __post_init__(self) -> None:
        if self.trigger not in CRASH_TRIGGERS:
            raise ValueError(
                f"unknown trigger {self.trigger!r}; "
                f"supported: {CRASH_TRIGGERS}"
            )
        if self.delay < 1:
            raise ValueError(f"delay must be >= 1, got {self.delay}")
        if self.trigger == "at-step":
            if self.location is None or self.param is None:
                raise ValueError('"at-step" needs location= and param=')
        if self.trigger == "on-send-count":
            if self.location is None or self.param is None:
                raise ValueError(
                    '"on-send-count" needs location= and param='
                )


ChannelKey = Tuple[int, int]


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seed-derived chaos description for one run.

    Parameters
    ----------
    seed:
        Root of every probabilistic fault decision.  ``None`` (default)
        means *unbound*: the engine derives the effective seed from the
        run's seed, so sweeping seeds sweeps fault schedules too.  Bind
        explicitly with :meth:`bound` / :meth:`derive` when a fixed
        schedule must repeat across runs.
    default:
        The :class:`ChannelFaults` applied to every channel without a
        per-channel override.
    per_channel:
        ``(source, destination) -> ChannelFaults`` overrides.  Accepts a
        mapping; stored as a sorted tuple of pairs so the plan stays
        hashable and order-independent.
    crash_rules:
        Event-triggered adversarial crashes (:class:`CrashRule`).

    Examples
    --------
    >>> plan = FaultPlan.uniform(drop_p=0.1, seed=7)
    >>> plan.for_channel(0, 1).drop_p
    0.1
    >>> plan.is_inert
    False
    >>> FaultPlan().is_inert
    True
    """

    seed: Optional[int] = None
    default: ChannelFaults = field(default_factory=ChannelFaults)
    per_channel: Any = ()
    crash_rules: Tuple[CrashRule, ...] = ()

    def __post_init__(self) -> None:
        items: Iterable
        if isinstance(self.per_channel, Mapping):
            items = self.per_channel.items()
        else:
            items = self.per_channel
        normalized = tuple(
            sorted(((int(s), int(d)), faults) for (s, d), faults in items)
        )
        for key, faults in normalized:
            if not isinstance(faults, ChannelFaults):
                raise TypeError(
                    f"per_channel[{key}] must be a ChannelFaults, "
                    f"got {type(faults).__name__}"
                )
        object.__setattr__(self, "per_channel", normalized)
        object.__setattr__(self, "crash_rules", tuple(self.crash_rules))

    # -- Construction helpers ----------------------------------------------

    @staticmethod
    def inert() -> "FaultPlan":
        """The plan that injects nothing (provably equivalent to no plan)."""
        return FaultPlan()

    @staticmethod
    def uniform(seed: Optional[int] = None, **faults: Any) -> "FaultPlan":
        """A plan applying the same :class:`ChannelFaults` knobs to every
        channel: ``FaultPlan.uniform(drop_p=0.1, seed=3)``."""
        return FaultPlan(seed=seed, default=ChannelFaults(**faults))

    # -- Seed plumbing ------------------------------------------------------

    @property
    def is_bound(self) -> bool:
        """Whether the plan carries a concrete seed."""
        return self.seed is not None

    def bound(self, seed: int) -> "FaultPlan":
        """This plan with ``seed`` filled in (no-op when already bound)."""
        if self.seed is not None:
            return self
        return replace(self, seed=int(seed))

    def derive(self, *components) -> "FaultPlan":
        """A copy whose seed is ``derive_seed(seed, *components)``.

        Requires a bound plan; use :meth:`bound` first otherwise.
        """
        if self.seed is None:
            raise ValueError("cannot derive from an unbound plan")
        return replace(self, seed=derive_seed(self.seed, *components))

    def channel_seed(self, source: int, destination: int) -> int:
        """The per-channel decision seed (stable across processes)."""
        if self.seed is None:
            raise ValueError(
                "plan is unbound; bind it to a run seed first "
                "(FaultPlan.bound / ExperimentSpec handles this)"
            )
        return derive_seed(self.seed, "chan", source, destination)

    # -- Queries ------------------------------------------------------------

    def for_channel(self, source: int, destination: int) -> ChannelFaults:
        """The fault configuration of channel ``source -> destination``."""
        for key, faults in self.per_channel:
            if key == (source, destination):
                return faults
        return self.default

    @property
    def channels_inert(self) -> bool:
        """Whether no channel can ever see an injected fault."""
        return self.default.is_inert and all(
            faults.is_inert for _key, faults in self.per_channel
        )

    @property
    def is_inert(self) -> bool:
        """Whether the whole plan is a no-op (channels and crash rules).

        The system builder keeps the reliable channel automata when this
        holds, so an inert plan is *provably* identical to no plan.
        """
        return self.channels_inert and not self.crash_rules

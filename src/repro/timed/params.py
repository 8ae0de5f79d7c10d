"""Timing parameters for the discrete-virtual-time detector layer.

Everything here is a plain frozen dataclass of hashable values: the
parameters pickle, compare by value, hash, and enter
``ExperimentSpec.meta()`` field by field — and therefore the result-cache
key.  Time is an integer
tick counter owned by the timed automaton; no wall clock exists anywhere
in this layer (REPRO001-clean by construction).

:class:`DelayModel` describes one channel-delay distribution.  Bounded
mode (``growth == 0``) draws each message's delay uniformly from
``[base, base + jitter]`` (``post_jitter`` after the global
stabilization tick ``gst`` — the classic partial-synchrony window).
Unbounded mode (``growth >= 2``) adds ``growth ** send_index`` ticks to
the ``index``-th send of a channel, so consecutive message delays
outgrow *any* fixed or adaptively-bumped timeout — the timing regime
under which no heartbeat implementation can realize ◇P.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Optional

from repro.runner.seeds import derive_seed


@dataclass(frozen=True)
class DelayModel:
    """A seed-deterministic per-channel message-delay distribution.

    Parameters
    ----------
    base:
        Minimum delivery delay in ticks (>= 1: a message sent at tick t
        is never delivered before t + 1).
    jitter:
        Extra uniform delay in ``[0, jitter]`` ticks, drawn per send via
        :func:`~repro.runner.seeds.derive_seed` — the same draw on any
        machine at any job count.
    gst:
        Global stabilization tick.  Before ``gst`` the jitter bound is
        ``jitter``; from ``gst`` on it is ``post_jitter`` (a partial
        synchrony window in the Dwork–Lynch–Stockmeyer sense).
    post_jitter:
        Jitter bound after ``gst``; ``None`` keeps ``jitter`` (i.e. no
        synchrony change at ``gst``).
    growth:
        ``0`` for bounded delays.  An integer ``>= 2`` makes the model
        *unbounded*: the ``index``-th send of a channel waits an extra
        ``growth ** index`` ticks, so delays grow without bound.
    """

    base: int = 1
    jitter: int = 0
    gst: int = 0
    post_jitter: Optional[int] = None
    growth: int = 0

    def __post_init__(self) -> None:
        if self.base < 1:
            raise ValueError(f"base delay must be >= 1 tick, got {self.base}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.gst < 0:
            raise ValueError(f"gst must be >= 0, got {self.gst}")
        if self.post_jitter is not None and self.post_jitter < 0:
            raise ValueError(
                f"post_jitter must be >= 0, got {self.post_jitter}"
            )
        if self.growth != 0 and self.growth < 2:
            raise ValueError(
                "growth must be 0 (bounded) or an integer >= 2 "
                f"(unbounded), got {self.growth}"
            )

    @property
    def bounded(self) -> bool:
        """Whether every delay this model can draw is bounded."""
        return self.growth == 0

    @property
    def max_total(self) -> int:
        """The worst-case delay of a bounded model, in ticks.

        For partial-synchrony models this is the *pre-gst* bound (the
        post-gst bound is ``base + post_jitter``).  Unbounded models
        have no bound; asking for one is a caller bug.
        """
        if not self.bounded:
            raise ValueError("an unbounded delay model has no max_total")
        return self.base + max(self.jitter, self.post_jitter or 0)

    def delay_of(self, channel_seed: int, index: int, now: int) -> int:
        """The delay (ticks) of the ``index``-th send on a channel.

        A pure function of ``(channel_seed, index, now)`` — reproducible
        across processes and machines.  ``now`` only selects which side
        of ``gst`` the send falls on.
        """
        jitter = self.jitter
        if self.post_jitter is not None and now >= self.gst:
            jitter = self.post_jitter
        extra = 0
        if jitter:
            extra = derive_seed(channel_seed, "lag", index) % (jitter + 1)
        if self.growth:
            # Exact integer power: unbounded delays must not saturate.
            extra += self.growth ** index
        return self.base + extra


@dataclass(frozen=True)
class TimedParams:
    """The timing knobs of one timed-detector run.

    One value object covers all three registered implementations; each
    reads the knobs it cares about (the heartbeat detector ignores
    ``query_period``, the ping/pong detector ignores
    ``heartbeat_period`` and ``lease``).

    Parameters
    ----------
    heartbeat_period:
        Ticks between heartbeat broadcasts (heartbeat / leader-lease).
    timeout:
        Initial suspicion timeout in ticks: a peer quiet for more than
        ``timeout`` ticks (heartbeat) — or a ping unanswered for more
        than ``timeout`` ticks (ping/pong) — becomes suspected.
    timeout_bump:
        Adaptive increment: when a heartbeat-style suspicion proves
        false (a message from the suspect arrives), that peer's timeout
        grows by this much.  ``0`` disables adaptation.
    query_period:
        Ticks between ping rounds (ping/pong only).
    lease:
        The *leader's* suspicion threshold in the leader-lease detector:
        the current leader is only demoted after ``lease`` ticks of
        silence, damping leadership changes relative to plain peers.
    delay:
        The channel :class:`DelayModel`.
    """

    heartbeat_period: int = 2
    timeout: int = 6
    timeout_bump: int = 2
    query_period: int = 4
    lease: int = 10
    delay: DelayModel = field(default_factory=DelayModel)

    def __post_init__(self) -> None:
        for name in ("heartbeat_period", "timeout", "query_period", "lease"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1 tick, got {value}")
        if self.timeout_bump < 0:
            raise ValueError(
                f"timeout_bump must be >= 0, got {self.timeout_bump}"
            )
        if not isinstance(self.delay, DelayModel):
            raise TypeError(
                "delay must be a DelayModel, "
                f"got {type(self.delay).__name__}"
            )

    # -- Construction --------------------------------------------------------

    @staticmethod
    def coerce(value: Any) -> "TimedParams":
        """Normalize whatever names timed params into a TimedParams.

        ``None`` -> defaults; an instance passes through; a mapping is
        merged over the defaults (``{"timeout": 4}``,
        ``{"delay": {"jitter": 2}}``).
        """
        if value is None:
            return TimedParams()
        if isinstance(value, TimedParams):
            return value
        if isinstance(value, Mapping):
            return TimedParams().merged(value)
        raise TypeError(
            "timed params must be a TimedParams, a mapping of overrides, "
            f"or None; got {type(value).__name__}"
        )

    def merged(self, overrides: Mapping[str, Any]) -> "TimedParams":
        """A copy with ``overrides`` applied.

        ``"delay"`` accepts a :class:`DelayModel` or a mapping of
        :class:`DelayModel` overrides (merged over *this* value's delay
        model).  Unknown keys raise ``ValueError`` naming the valid
        ones, so sweep-grid typos fail loudly instead of silently
        running the defaults.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown timed param(s) {unknown}; valid keys: "
                + ", ".join(sorted(valid))
            )
        merged = dict(overrides)
        if "delay" in merged and not isinstance(merged["delay"], DelayModel):
            delay_overrides = merged["delay"]
            if not isinstance(delay_overrides, Mapping):
                raise TypeError(
                    'timed param "delay" must be a DelayModel or a '
                    f"mapping, got {type(delay_overrides).__name__}"
                )
            delay_valid = {f.name for f in fields(DelayModel)}
            delay_unknown = sorted(set(delay_overrides) - delay_valid)
            if delay_unknown:
                raise ValueError(
                    f"unknown delay param(s) {delay_unknown}; valid "
                    "keys: " + ", ".join(sorted(delay_valid))
                )
            merged["delay"] = replace(self.delay, **delay_overrides)
        return replace(self, **merged)

    # -- Identity ------------------------------------------------------------

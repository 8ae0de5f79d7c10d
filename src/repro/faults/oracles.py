"""Trace-conformance oracles: structured checkers over recorded runs.

Each oracle examines one property of an action sequence (normally
``execution.actions`` of a system run) and returns an
:class:`OracleVerdict` carrying the **first violating trace index** — the
0-based position of the earliest action that witnesses the violation.
Liveness properties (no-loss without an in-transit excuse, termination)
have no single violating action; their verdicts use ``len(actions)`` as
the index, marking "the run ended without the required event".

The oracles are deliberately *orthogonal*: each fault type trips exactly
the oracle that names its property and no other (the negative-test suite
in ``tests/faults`` enforces this pairing):

=========================  ===========================================
oracle                     violated by
=========================  ===========================================
:class:`NoLossOracle`      dropped messages (``drop_p``)
:class:`NoDuplicationOracle`  duplicated messages (``duplicate_p``)
:class:`FifoOracle`        reordered messages (``reorder_p``)
:class:`CrashValidityOracle`  unplanned crashes, post-crash activity
:class:`AfdValidityOracle`    detector outputs violating T_D
:class:`ConsensusAgreementOracle`   conflicting decisions
:class:`ConsensusValidityOracle`    deciding an unproposed value
:class:`ConsensusTerminationOracle` live location never decides /
                           decides twice
=========================  ===========================================

Delays (``delay_p``) violate nothing: delivery order is preserved and
every held message is still in transit, so a delayed run is clean under
every oracle here — that, too, is asserted by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.afd import AFD
from repro.ioa.actions import Action
from repro.system.channel import RECEIVE, SEND
from repro.system.environment import DECIDE, PROPOSE
from repro.system.fault_pattern import is_crash


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's judgement of one trace.

    ``violation_index`` is the 0-based index of the first action
    witnessing the violation; for liveness failures (nothing *happened*
    that should have) it is ``len(actions)``.  ``None`` when ok.
    """

    oracle: str
    ok: bool
    violation_index: Optional[int] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"oracle": self.oracle, "ok": self.ok}
        if not self.ok:
            out["violation_index"] = self.violation_index
            out["reason"] = self.reason
        return out


@dataclass(frozen=True)
class ConformanceReport:
    """The combined verdicts of a run through several oracles."""

    verdicts: Tuple[OracleVerdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def failures(self) -> Tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.ok)

    def verdict(self, oracle_name: str) -> OracleVerdict:
        for v in self.verdicts:
            if v.oracle == oracle_name:
                return v
        raise KeyError(f"no verdict from oracle {oracle_name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


class TraceOracle:
    """Base class: a named checker of one property of a trace."""

    name: str = "oracle"

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        raise NotImplementedError

    def _ok(self) -> OracleVerdict:
        return OracleVerdict(self.name, True)

    def _fail(self, index: int, reason: str) -> OracleVerdict:
        return OracleVerdict(self.name, False, index, reason)


ChannelKey = Tuple[int, int]


def _channel_of(action: Action) -> Optional[ChannelKey]:
    """The (source, destination) key of a send/receive action, else None."""
    if action.name == SEND and len(action.payload) == 2:
        return (action.location, action.payload[1])
    if action.name == RECEIVE and len(action.payload) == 2:
        return (action.payload[1], action.location)
    return None


class NoLossOracle(TraceOracle):
    """Every sent message is eventually received (or still in transit).

    ``final_in_transit`` maps ``(source, destination)`` to the messages
    still queued when the run ended (see
    :func:`repro.system.channel.messages_in_transit`); those sends are
    excused.  Without it, any undelivered send is a violation — use that
    mode only on runs expected to drain their channels.

    Loss is a liveness violation (the receive never happened), so the
    reported index is the *send* whose message went missing — the
    earliest send that can be matched to neither a receive nor a
    still-in-transit message on its channel.
    """

    name = "no-loss"

    def __init__(
        self,
        final_in_transit: Optional[Mapping[ChannelKey, Sequence[Any]]] = None,
    ):
        self.final_in_transit = (
            {k: list(v) for k, v in final_in_transit.items()}
            if final_in_transit is not None
            else {}
        )

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        sends: Dict[ChannelKey, List[Tuple[int, Any]]] = {}
        receives: Dict[ChannelKey, Dict[Any, int]] = {}
        for k, a in enumerate(actions):
            key = _channel_of(a)
            if key is None:
                continue
            if a.name == SEND:
                sends.setdefault(key, []).append((k, a.payload[0]))
            else:
                bucket = receives.setdefault(key, {})
                bucket[a.payload[0]] = bucket.get(a.payload[0], 0) + 1
        for key in sorted(sends):
            remaining = dict(receives.get(key, {}))
            transit: Dict[Any, int] = {}
            for message in self.final_in_transit.get(key, ()):
                transit[message] = transit.get(message, 0) + 1
            for index, message in sends[key]:
                if remaining.get(message, 0) > 0:
                    remaining[message] -= 1
                elif transit.get(message, 0) > 0:
                    transit[message] -= 1
                else:
                    return self._fail(
                        index,
                        f"message {message!r} sent on {key[0]}->{key[1]} "
                        f"(trace index {index}) was neither received nor "
                        f"in transit at the end of the run",
                    )
        return self._ok()


class NoDuplicationOracle(TraceOracle):
    """No message is received more often than it was sent.

    Walks the trace in order keeping per-channel send/receive tallies
    per message value; the first receive that exceeds its sends is the
    violation (this also catches receives of never-sent messages).
    """

    name = "no-duplication"

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        sent: Dict[ChannelKey, Dict[Any, int]] = {}
        received: Dict[ChannelKey, Dict[Any, int]] = {}
        for k, a in enumerate(actions):
            key = _channel_of(a)
            if key is None:
                continue
            message = a.payload[0]
            if a.name == SEND:
                bucket = sent.setdefault(key, {})
                bucket[message] = bucket.get(message, 0) + 1
            else:
                bucket = received.setdefault(key, {})
                count = bucket.get(message, 0) + 1
                if count > sent.get(key, {}).get(message, 0):
                    return self._fail(
                        k,
                        f"receive #{count} of message {message!r} on "
                        f"{key[0]}->{key[1]} exceeds its "
                        f"{sent.get(key, {}).get(message, 0)} send(s)",
                    )
                bucket[message] = count
        return self._ok()


class FifoOracle(TraceOracle):
    """Messages are received in the order they were sent (per channel).

    Each receive is matched to the earliest *unmatched* send of the same
    message on its channel (falling back to the earliest send when all
    are matched — a duplicate, which is :class:`NoDuplicationOracle`'s
    business, delivered in place); receives of never-sent messages are
    skipped for the same reason.  A violation is a receive whose matched
    send precedes an already-delivered later send — possible only if the
    channel reordered.
    """

    name = "fifo"

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        send_positions: Dict[ChannelKey, Dict[Any, List[int]]] = {}
        counts: Dict[ChannelKey, int] = {}
        matched: Dict[ChannelKey, Dict[Any, int]] = {}
        watermark: Dict[ChannelKey, int] = {}
        for k, a in enumerate(actions):
            key = _channel_of(a)
            if key is None:
                continue
            message = a.payload[0]
            if a.name == SEND:
                position = counts.get(key, 0)
                counts[key] = position + 1
                send_positions.setdefault(key, {}).setdefault(
                    message, []
                ).append(position)
                continue
            positions = send_positions.get(key, {}).get(message)
            if not positions:
                continue  # never sent: no-duplication's violation
            used = matched.setdefault(key, {})
            cursor = used.get(message, 0)
            if cursor < len(positions):
                position = positions[cursor]
                used[message] = cursor + 1
            else:
                position = positions[0]  # duplicate of an earlier send
            if position < watermark.get(key, -1):
                return self._fail(
                    k,
                    f"message {message!r} (send #{position} on "
                    f"{key[0]}->{key[1]}) received after send "
                    f"#{watermark[key]} was already delivered",
                )
            watermark[key] = max(watermark.get(key, -1), position)
        return self._ok()


class CrashValidityOracle(TraceOracle):
    """Crashes match the plan, and crashed locations go silent.

    ``allowed`` is the set of locations the fault pattern / crash rules
    may crash; ``None`` allows any.  After a location's crash event, any
    *output activity attributable to that location's process* — a send,
    a propose, or a decision — is a "zombie" violation.  Receives are
    exempt: ``receive(m, i)_j`` is the *channel's* output, and channels
    legitimately deliver to crashed locations.  Failure-detector outputs
    at crashed locations are :class:`AfdValidityOracle`'s business (AFD
    validity, Section 3.1), not this oracle's.
    """

    name = "crash-validity"

    def __init__(self, allowed: Optional[Iterable[int]] = None):
        self.allowed = frozenset(allowed) if allowed is not None else None

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        crashed: set = set()
        for k, a in enumerate(actions):
            if is_crash(a):
                if (
                    self.allowed is not None
                    and a.location not in self.allowed
                ):
                    return self._fail(
                        k,
                        f"crash at location {a.location} not in the "
                        f"allowed set {sorted(self.allowed)}",
                    )
                crashed.add(a.location)
            elif (
                a.name in (SEND, PROPOSE, DECIDE)
                and a.location in crashed
            ):
                return self._fail(
                    k,
                    f"{a.name} at location {a.location} after its crash",
                )
        return self._ok()


class AfdValidityOracle(TraceOracle):
    """The detector's output events form a valid member of T_D.

    Delegates membership to :meth:`AFD.check_limit` over the trace's
    projection onto I-hat ∪ O_D, then localizes the violation.  Safety
    failures are localized *exactly*: because :meth:`AFD.check_safety`
    is prefix-monotone (a safe trace has only safe prefixes), a binary
    search over prefixes finds the unique event whose arrival first
    makes the trace unsafe — covering not just malformed outputs and
    outputs after a same-location crash but every ``extra_safety``
    property an AFD declares (e.g. P's premature suspicion of a
    live-but-slow peer in a timed run).  Pure liveness failures (too
    few outputs, no stabilization witness) have no violating event and
    report ``len(actions)``.
    """

    name = "afd-validity"

    def __init__(self, afd: AFD, min_live_outputs: int = 1):
        self.afd = afd
        self.min_live_outputs = min_live_outputs

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        projected: List[Tuple[int, Action]] = [
            (k, a) for k, a in enumerate(actions) if self.afd.is_event(a)
        ]
        events = [a for _k, a in projected]
        result = self.afd.check_limit(events, self.min_live_outputs)
        if result.ok:
            return self._ok()
        reason = "; ".join(result.reasons) or "T_D membership failed"
        if events and not self.afd.check_safety(events):
            # Prefix-monotone safety: binary-search the minimal failing
            # prefix; its last event is the exact violation.
            lo, hi = 0, len(events) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if self.afd.check_safety(events[: mid + 1]):
                    lo = mid + 1
                else:
                    hi = mid
            return self._fail(projected[lo][0], reason)
        return self._fail(len(actions), reason)


class ConsensusAgreementOracle(TraceOracle):
    """No two decisions disagree (uniform agreement)."""

    name = "consensus-agreement"

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        first_value = None
        first_index = None
        for k, a in enumerate(actions):
            if a.name != DECIDE:
                continue
            value = a.payload[0]
            if first_value is None:
                first_value, first_index = value, k
            elif value != first_value:
                return self._fail(
                    k,
                    f"decide({value!r}) at location {a.location} disagrees "
                    f"with decide({first_value!r}) at trace index "
                    f"{first_index}",
                )
        return self._ok()


class ConsensusValidityOracle(TraceOracle):
    """Every decided value was proposed by some location."""

    name = "consensus-validity"

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        proposed: set = set()
        for k, a in enumerate(actions):
            if a.name == PROPOSE:
                proposed.add(a.payload[0])
            elif a.name == DECIDE and a.payload[0] not in proposed:
                return self._fail(
                    k,
                    f"decide({a.payload[0]!r}) at location {a.location} "
                    f"but only {sorted(map(repr, proposed))} were proposed",
                )
        return self._ok()


class ConsensusTerminationOracle(TraceOracle):
    """Every live location decides exactly once.

    ``locations`` is the full location set; live = no crash event in the
    trace.  A second decision at one location is a safety violation at
    its index; a live location that never decides is a liveness
    violation at ``len(actions)``.
    """

    name = "consensus-termination"

    def __init__(self, locations: Sequence[int]):
        self.locations = tuple(locations)

    def check(self, actions: Sequence[Action]) -> OracleVerdict:
        decided: set = set()
        crashed: set = set()
        for k, a in enumerate(actions):
            if is_crash(a):
                crashed.add(a.location)
            elif a.name == DECIDE:
                if a.location in decided:
                    return self._fail(
                        k, f"location {a.location} decided twice"
                    )
                decided.add(a.location)
        missing = [
            i
            for i in self.locations
            if i not in crashed and i not in decided
        ]
        if missing:
            return self._fail(
                len(actions),
                f"live location(s) {missing} never decided",
            )
        return self._ok()


def channel_integrity_oracles(
    final_in_transit: Optional[Mapping[ChannelKey, Sequence[Any]]] = None,
) -> Tuple[TraceOracle, ...]:
    """The reliable-FIFO-channel property bundle (Section 4.3)."""
    return (
        NoLossOracle(final_in_transit),
        NoDuplicationOracle(),
        FifoOracle(),
    )


def consensus_oracles(locations: Sequence[int]) -> Tuple[TraceOracle, ...]:
    """The consensus-specification bundle (agreement/validity/termination)."""
    return (
        ConsensusAgreementOracle(),
        ConsensusValidityOracle(),
        ConsensusTerminationOracle(locations),
    )


def run_oracles(
    actions: Sequence[Action], oracles: Iterable[TraceOracle]
) -> ConformanceReport:
    """Check one trace against several oracles; never short-circuits, so
    the report shows every violated property at once."""
    return ConformanceReport(
        verdicts=tuple(oracle.check(actions) for oracle in oracles)
    )

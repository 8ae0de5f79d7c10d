"""Run statistics: the quantitative series the benchmark harness prints.

The paper has no numeric tables (its evaluation is a set of theorems), so
the benchmark series report *harness* quantities — decision latency in
events, message counts, tree sizes — whose shapes the experiments assert
(e.g. latency grows with n; hook counts are positive; stronger detectors
never lose to weaker ones on solvable instances).

:func:`collect_run_statistics` tallies one run straight from its
:class:`~repro.ioa.executions.Execution`; an instrumented run's
event-kind tallies are :meth:`repro.obs.trace.TraceRecorder.counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean, median
from typing import Dict, Optional, Sequence

from repro.ioa.executions import Execution
from repro.system.fault_pattern import is_crash


@dataclass
class RunStatistics:
    """Event-level statistics of one system execution.

    ``first_decision_index`` and ``last_decision_index`` are 0-based
    positions in the event sequence; the latency properties count events
    *up to and including* the decision, i.e. ``index + 1``.
    """

    total_events: int
    sends: int
    receives: int
    fd_outputs: int
    crashes: int
    decisions: int
    first_decision_index: Optional[int]
    last_decision_index: Optional[int]
    #: Receives in excess of the matching channel's sends of the same
    #: message (0 on reliable channels; positive under duplication).
    duplicate_receives: int = 0
    #: Sends never matched by a receive (dropped, or still in transit
    #: when the run ended; 0 when every channel drained reliably).
    undelivered_sends: int = 0

    @property
    def decision_latency(self) -> Optional[int]:
        """Events until the last decision inclusive (the run's consensus
        latency): ``last_decision_index + 1``, or None if nobody decided."""
        if self.last_decision_index is None:
            return None
        return self.last_decision_index + 1

    @property
    def first_decision_latency(self) -> Optional[int]:
        """Events until the first decision inclusive, or None."""
        if self.first_decision_index is None:
            return None
        return self.first_decision_index + 1

    @property
    def delivered_sends(self) -> int:
        """Sends matched by at least one receive on their channel."""
        return self.sends - self.undelivered_sends

    def to_dict(self) -> Dict[str, Optional[int]]:
        """A JSON-ready dump including the derived latencies."""
        return {
            "total_events": self.total_events,
            "sends": self.sends,
            "receives": self.receives,
            "fd_outputs": self.fd_outputs,
            "crashes": self.crashes,
            "decisions": self.decisions,
            "duplicate_receives": self.duplicate_receives,
            "undelivered_sends": self.undelivered_sends,
            "first_decision_index": self.first_decision_index,
            "last_decision_index": self.last_decision_index,
            "first_decision_latency": self.first_decision_latency,
            "decision_latency": self.decision_latency,
        }


def collect_run_statistics(
    execution: Execution,
    fd_output_name: Optional[str] = None,
) -> RunStatistics:
    """Tally the events of one execution.

    Send/receive accounting does not assume the reliable-channel
    invariant "every receive has a matching prior send": per channel and
    message, receives beyond the send count are tallied as
    ``duplicate_receives`` and unmatched sends as ``undelivered_sends``,
    so statistics stay truthful under fault injection (duplicating or
    lossy channels) instead of silently mis-counting.
    """
    sends = receives = fd_outputs = crashes = decisions = 0
    duplicate_receives = 0
    first_decision = last_decision = None
    # (source, destination) -> message -> sends minus matched receives.
    balance: Dict[tuple, Dict[object, int]] = {}
    for k, action in enumerate(execution.actions):
        # FD outputs are tallied independently of the other buckets: a
        # detector whose output action is named "send"/"receive"/"decide"
        # must still have its events counted as FD outputs (and as
        # sends/receives/decisions), not silently zeroed by an elif chain.
        if fd_output_name is not None and action.name == fd_output_name:
            fd_outputs += 1
        if action.name == "send":
            sends += 1
            if len(action.payload) == 2:
                message, destination = action.payload
                bucket = balance.setdefault(
                    (action.location, destination), {}
                )
                bucket[message] = bucket.get(message, 0) + 1
        elif action.name == "receive":
            receives += 1
            if len(action.payload) == 2:
                message, source = action.payload
                bucket = balance.setdefault(
                    (source, action.location), {}
                )
                outstanding = bucket.get(message, 0)
                if outstanding > 0:
                    bucket[message] = outstanding - 1
                else:
                    duplicate_receives += 1
        elif is_crash(action):
            crashes += 1
        elif action.name == "decide":
            decisions += 1
            if first_decision is None:
                first_decision = k
            last_decision = k
    undelivered = sum(
        count
        for bucket in balance.values()
        for count in bucket.values()
        if count > 0
    )
    return RunStatistics(
        total_events=len(execution),
        sends=sends,
        receives=receives,
        fd_outputs=fd_outputs,
        crashes=crashes,
        decisions=decisions,
        first_decision_index=first_decision,
        last_decision_index=last_decision,
        duplicate_receives=duplicate_receives,
        undelivered_sends=undelivered,
    )


def summarize_series(values: Sequence[float]) -> Dict[str, float]:
    """Mean/median/min/max summary used by the benchmark printers."""
    if not values:
        return {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0}
    return {
        "mean": float(mean(values)),
        "median": float(median(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }

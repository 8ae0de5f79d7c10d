"""Terminating leader election: a bounded problem (Section 7.3).

Each location outputs at most one ``leader(l)_i`` event; live locations
output exactly one; all outputs name the same location; no location
announces after crashing.  Validity is the classic one-shot form: the
elected location must not have been crashed *from the very start* (its
crash, if any, must not precede every other event) — a process that
participates and then crashes mid-protocol may legitimately win, exactly
as a consensus-based election can decide a proposer that crashed after
proposing.  (Electing a *live* leader repeatedly is the job of the Omega
AFD, not of the one-shot problem.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Set

from repro.ioa.actions import Action
from repro.core.afd import CheckResult
from repro.core.validity import live_locations
from repro.problems.base import CrashProblem
from repro.system.fault_pattern import is_crash

LEADER = "leader"


def leader_action(location: int, leader: int) -> Action:
    """The output ``leader(l)_i``."""
    return Action(LEADER, location, (leader,))


class LeaderElectionProblem(CrashProblem):
    """The terminating-leader-election specification."""

    def __init__(self, locations: Sequence[int], f: int):
        super().__init__(locations, f"leader-election(f={f})")
        self.f = f

    def is_input(self, action: Action) -> bool:
        return is_crash(action) and action.location in self.locations

    def is_output(self, action: Action) -> bool:
        return (
            action.name == LEADER
            and action.location in self.locations
            and len(action.payload) == 1
            and action.payload[0] in self.locations
        )

    def check_assumptions(self, t: Sequence[Action]) -> CheckResult:
        faulty = {a.location for a in t if is_crash(a)}
        if len(faulty) > self.f:
            return CheckResult.failure(
                f"{len(faulty)} crashes exceed f = {self.f}"
            )
        return CheckResult.success()

    def check_guarantees(self, t: Sequence[Action]) -> CheckResult:
        counts: Dict[int, int] = {}
        named: Set[int] = set()
        crashed: Set[int] = set()
        # Validity: the winner must not have been dead from the start.
        initially_dead: Set[int] = set()
        for a in t:
            if is_crash(a):
                initially_dead.add(a.location)
            else:
                break
        for k, a in enumerate(t):
            if is_crash(a):
                crashed.add(a.location)
            elif a.name == LEADER:
                counts[a.location] = counts.get(a.location, 0) + 1
                named.add(a.payload[0])
                if a.payload[0] in initially_dead:
                    return CheckResult.failure(
                        f"elected {a.payload[0]}, which was crashed "
                        "before any other event occurred"
                    )
                if a.location in crashed:
                    return CheckResult.failure(
                        f"election output at crashed location "
                        f"{a.location} (index {k})"
                    )
        if len(named) > 1:
            return CheckResult.failure(
                f"conflicting leaders elected: {sorted(named)}"
            )
        for i, c in counts.items():
            if c > 1:
                return CheckResult.failure(f"location {i} elected {c} times")
        for i in live_locations(t, self.locations):
            if counts.get(i, 0) != 1:
                return CheckResult.failure(
                    f"live location {i} never elected a leader"
                )
        return CheckResult.success()

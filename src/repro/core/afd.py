"""The asynchronous failure detector abstraction (Section 3.2).

An AFD is a crash problem ``D = (I-hat, O_D, T_D)`` satisfying *crash
exclusivity* (its only inputs are the crash events) plus three properties:

1. **Validity** — every t in T_D is valid (no outputs after a crash at the
   same location; infinitely many outputs at live locations);
2. **Closure under sampling**;
3. **Closure under constrained reordering**.

T_D is an infinite set of infinite sequences, so an :class:`AFD` instance
carries two executable artifacts:

* a **checker** for membership: exact safety checking of finite prefixes
  (:meth:`AFD.check_safety`) and limit checking of completed finite runs
  (:meth:`AFD.check_limit`).  Eventual ("there exists a suffix such that
  ...") properties are evaluated by locating the last violating event and
  requiring that a nontrivial witness suffix follows it — every live
  location must produce at least one further output after the last
  violation (:func:`eventually_forever`).  This approximation is stable
  under samplings and constrained reorderings, unlike a fixed-position
  window;
* a **generator automaton** (:meth:`AFD.automaton`) whose fair traces lie
  in T_D — the paper's Algorithms 1 and 2 are instances.

:func:`check_afd_closure_properties` validates properties 1–3 on concrete
traces by generating samplings and constrained reorderings and re-checking
membership; the hypothesis-based test suite drives it across the zoo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.core.renaming import Renaming
from repro.core.reordering import random_constrained_reordering
from repro.core.sampling import random_sampling
from repro.core.validity import (
    CheckResult,
    check_live_output_liveness,
    check_no_outputs_after_crash,
    live_locations,
)
from repro.system.fault_pattern import CRASH, is_crash


def eventually_forever(
    t: Sequence[Action],
    live: FrozenSet[int],
    event_ok: Callable[[Action], bool],
    min_tail_outputs: int = 3,
    description: str = "eventual property",
) -> CheckResult:
    """Finite approximation of "there exists a suffix of t in which every
    output event satisfies ``event_ok``".

    Finds the last output event violating ``event_ok``; the property holds
    iff after that event every live location still produces at least
    ``min_tail_outputs`` outputs (a nontrivial witness that the run had
    stabilized — the default of 3 keeps a single trailing conforming
    output from counting as 'stabilization').  Crash events never violate.

    One pass: each location's output count restarts at every violation,
    so at the end it counts the outputs after the last one.
    """
    last_violation = -1
    tail_counts: Dict[Optional[int], int] = {}
    for k, a in enumerate(t):
        if is_crash(a):
            continue
        if event_ok(a):
            tail_counts[a.location] = tail_counts.get(a.location, 0) + 1
        else:
            last_violation = k
            tail_counts.clear()
    for i in live:
        count = tail_counts.get(i, 0)
        if count < min_tail_outputs:
            return CheckResult.failure(
                f"{description}: live location {i} has only {count} outputs "
                f"after the last violating event (index {last_violation}); "
                f"needed >= {min_tail_outputs}"
            )
    return CheckResult.success()


class AFD(ABC):
    """Base class for asynchronous failure detectors.

    Subclasses define the output-action vocabulary, per-event
    well-formedness, any additional safety conditions, the eventual
    (liveness) conditions, and the canonical generator automaton.

    Parameters
    ----------
    locations:
        The location set Pi.
    name:
        Human-readable detector name (e.g. ``"Omega"``).
    output_name:
        The action name of this detector's outputs (e.g. ``"fd-omega"``).
    """

    def __init__(
        self, locations: Sequence[int], name: str, output_name: str
    ):
        self.locations: Tuple[int, ...] = tuple(locations)
        self.name = name
        self.output_name = output_name

    # ------------------------------------------------------------------
    # Action vocabulary
    # ------------------------------------------------------------------

    def is_output(self, action: Action) -> bool:
        """Whether ``action`` is in O_D."""
        return (
            action.name == self.output_name
            and action.location in self.locations
        )

    def is_event(self, action: Action) -> bool:
        """Whether ``action`` is in I-hat ∪ O_D, with I-hat the crash
        events at the locations of Pi."""
        if is_crash(action):
            return action.location in self.locations
        return self.is_output(action)

    def output_actions(self) -> ActionSet:
        """O_D as an action set (for signatures and projections)."""
        return PredicateActionSet(
            self.is_output,
            f"O_{self.name}",
            keys=((self.output_name, i) for i in self.locations),
        )

    def event_actions(self) -> ActionSet:
        """I-hat ∪ O_D as an action set."""
        return PredicateActionSet(
            self.is_event,
            f"events({self.name})",
            keys=(
                (name, i)
                for i in self.locations
                for name in (CRASH, self.output_name)
            ),
        )

    def project_events(self, t: Sequence[Action]) -> List[Action]:
        """``t | (I-hat ∪ O_D)``."""
        return [a for a in t if self.is_event(a)]

    # ------------------------------------------------------------------
    # Specification hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def well_formed_output(self, action: Action) -> bool:
        """Whether an output event's payload is well formed for this AFD."""

    def extra_safety(self, t: Sequence[Action]) -> CheckResult:
        """Detector-specific safety conditions over a finite prefix.

        Default: none.  (Example: the perfect detector P never suspects a
        location before its crash event.)
        """
        return CheckResult.success()

    @abstractmethod
    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        """Detector-specific eventual conditions over the full completed
        run; implementations typically use :func:`eventually_forever`.

        ``live`` is the set of locations with no crash event in t.
        """

    @abstractmethod
    def automaton(self) -> Automaton:
        """A canonical generator automaton whose fair traces lie in T_D."""

    # ------------------------------------------------------------------
    # Membership checking
    # ------------------------------------------------------------------

    def check_events_well_formed(self, t: Sequence[Action]) -> CheckResult:
        for k, a in enumerate(t):
            if is_crash(a):
                if a.location in self.locations:
                    continue
            elif self.is_output(a):
                if self.well_formed_output(a):
                    continue
                return CheckResult.failure(
                    f"output {a} at index {k} is malformed for {self.name}"
                )
            return CheckResult.failure(
                f"event {a} at index {k} is not an event of {self.name}"
            )
        return CheckResult.success()

    def check_safety(self, t: Sequence[Action]) -> CheckResult:
        """Exact necessary conditions for t to be a prefix of some member
        of T_D: event vocabulary, validity condition (1), extra safety."""
        result = self.check_events_well_formed(t)
        if not result:
            return result
        result = result.merge(check_no_outputs_after_crash(t))
        if not result:
            return result
        return result.merge(self.extra_safety(t))

    def check_limit(
        self,
        t: Sequence[Action],
        min_live_outputs: int = 1,
    ) -> CheckResult:
        """Treat the finite t as a completed fair run and check membership:
        safety exactly, validity's liveness half and the detector's
        eventual conditions via their finite approximations (DESIGN.md,
        substitution table).  Validity's safety half is part of
        :meth:`check_safety`, so only the liveness half runs after it."""
        result = self.check_safety(t)
        if not result:
            return result
        result = result.merge(
            check_live_output_liveness(t, self.locations, min_live_outputs)
        )
        if not result:
            return result
        live = live_locations(t, self.locations)
        return result.merge(self.check_eventual(t, live))

    # ------------------------------------------------------------------
    # Renaming (Section 5.3)
    # ------------------------------------------------------------------

    def renaming(self, suffix: str = "'") -> Renaming:
        """The canonical renaming of this AFD's outputs."""
        return Renaming.with_suffix([self.output_name], suffix)

    def renamed(self, suffix: str = "'") -> "RenamedAFD":
        """The renamed AFD D' with ``T_D' = { r_IO(t) | t in T_D }``."""
        return RenamedAFD(self, suffix)

    def __repr__(self) -> str:
        return f"<AFD {self.name} over {self.locations}>"


class RenamedAFD(AFD):
    """A renaming D' of a base AFD (Section 5.3).

    Membership checks invert the renaming and delegate to the base;
    T_D' is the image of T_D under r_IO, so this is exact.
    """

    def __init__(self, base: AFD, suffix: str = "'"):
        super().__init__(
            base.locations, base.name + suffix, base.output_name + suffix
        )
        self.base = base
        self.suffix = suffix
        self._renaming = base.renaming(suffix)

    @property
    def renaming_map(self) -> Renaming:
        return self._renaming

    def well_formed_output(self, action: Action) -> bool:
        return self.base.well_formed_output(self._renaming.invert(action))

    def extra_safety(self, t: Sequence[Action]) -> CheckResult:
        return self.base.extra_safety(self._renaming.invert_sequence(t))

    def check_eventual(
        self, t: Sequence[Action], live: FrozenSet[int]
    ) -> CheckResult:
        return self.base.check_eventual(
            self._renaming.invert_sequence(t), live
        )

    def automaton(self) -> Automaton:
        from repro.detectors.base import RenamedDetectorAutomaton

        return RenamedDetectorAutomaton(self.base.automaton(), self._renaming)


def check_afd_closure_properties(
    afd: AFD,
    t: Sequence[Action],
    num_samplings: int = 5,
    num_reorderings: int = 5,
    seed: int = 0,
    min_live_outputs: int = 1,
) -> CheckResult:
    """Validate the three AFD properties on a concrete accepted trace.

    1. t itself passes the limit check (validity);
    2. random samplings of t pass the limit check (closure under sampling);
    3. random constrained reorderings pass it (closure under reordering).
    """
    result = afd.check_limit(t, min_live_outputs)
    if not result:
        return CheckResult.failure(
            f"base trace rejected by {afd.name}: {result.reasons}"
        )
    # seed + k predates derive_seed and is frozen: the E01/E03 BENCH
    # series replay these exact sampling/reordering draws.
    for k in range(num_samplings):
        sampled = random_sampling(t, seed=seed + k)  # repro-lint: disable=REPRO008
        sub = afd.check_limit(sampled, min_live_outputs)
        if not sub:
            return CheckResult.failure(
                f"sampling #{k} rejected: {sub.reasons}"
            )
    for k in range(num_reorderings):
        reordered = random_constrained_reordering(t, seed=seed + k)  # repro-lint: disable=REPRO008
        sub = afd.check_limit(reordered, min_live_outputs)
        if not sub:
            return CheckResult.failure(
                f"constrained reordering #{k} rejected: {sub.reasons}"
            )
    return CheckResult.success()

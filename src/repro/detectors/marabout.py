"""The Marabout failure detector: a failure detector that is NOT an AFD.

Marabout (Guerraoui [14]) *always* outputs the set of faulty locations —
including before any crash has occurred.  Section 3.4 of the paper: it
"cannot be specified as an AFD because no automaton can 'predict' the set
of faulty processes prior to any crash events"; recall the definition of a
problem (Section 3.1) requires some automaton whose fair traces lie inside
the trace set.

:class:`MaraboutSpec` provides the trace checker (every output's payload
must equal ``faulty(t)``), and :func:`refute_marabout_automaton`
demonstrates the impossibility constructively: given *any* deterministic
candidate automaton, it builds a fault pattern on which the candidate's
fair trace violates the specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.ioa.scheduler import Injection, Scheduler
from repro.core.validity import faulty_locations
from repro.detectors.base import sorted_tuple
from repro.system.fault_pattern import is_crash

MARABOUT_OUTPUT = "fd-marabout"


def marabout_output(location: int, faulty) -> Action:
    """The action ``FD-Marabout(F)_location``."""
    return Action(MARABOUT_OUTPUT, location, (sorted_tuple(faulty),))


class MaraboutSpec:
    """The Marabout trace set: every output names exactly ``faulty(t)``."""

    def __init__(self, locations: Sequence[int]):
        self.locations: Tuple[int, ...] = tuple(locations)

    def accepts(self, t: Sequence[Action]) -> bool:
        """Whether every output event carries exactly faulty(t)."""
        faulty = sorted_tuple(faulty_locations(t))
        return all(
            is_crash(a) or a.payload == (faulty,) for a in t
        )

    def first_violation(self, t: Sequence[Action]) -> Optional[int]:
        """Index of the first output event not naming faulty(t), if any."""
        faulty = sorted_tuple(faulty_locations(t))
        for k, a in enumerate(t):
            if not is_crash(a) and a.payload != (faulty,):
                return k
        return None


@dataclass
class MaraboutRefutation:
    """Evidence that a candidate automaton does not implement Marabout."""

    reason: str
    trace: List[Action]
    fault_pattern_note: str


def refute_marabout_automaton(
    candidate: Automaton,
    locations: Sequence[int],
    max_steps: int = 200,
) -> MaraboutRefutation:
    """Build a fault pattern on which ``candidate`` violates Marabout.

    Strategy (the paper's prediction argument, made executable):

    1. run the candidate crash-free until its first output event;
       if it never outputs, validity is violated at live locations;
    2. let S0 be the payload of that first output;
       * if S0 is empty, replay the same prefix and *then* crash some
         location i: faulty(t) = {i} but the trace already contains an
         output naming the empty set;
       * if S0 is nonempty, keep the run crash-free: faulty(t) = ∅ but the
         trace contains an output naming S0.

    Works for any candidate whose runs are deterministic under the
    round-robin scheduler (all our automata are).
    """
    locations = tuple(locations)
    scheduler = Scheduler()
    crash_free = scheduler.run(candidate, max_steps=max_steps)
    outputs = [a for a in crash_free.actions if not is_crash(a)]
    if not outputs:
        return MaraboutRefutation(
            reason=(
                "candidate produced no output in a crash-free run of "
                f"{max_steps} steps: validity requires infinitely many "
                "outputs at live locations"
            ),
            trace=list(crash_free.actions),
            fault_pattern_note="crash-free",
        )
    first = outputs[0]
    s0 = set(first.payload[0]) if first.payload else set()
    spec = MaraboutSpec(locations)
    if s0:
        # Crash-free run: faulty = empty, yet S0 was output.
        trace = list(crash_free.actions)
        assert not spec.accepts(trace)
        return MaraboutRefutation(
            reason=(
                f"in a crash-free run the candidate output {sorted(s0)} "
                "as the faulty set, but faulty(t) = {} in that run"
            ),
            trace=trace,
            fault_pattern_note="crash-free",
        )
    # S0 empty: replay the prefix up to the first output, then crash someone.
    first_output_step = next(
        k for k, a in enumerate(crash_free.actions) if not is_crash(a)
    )
    victim = locations[0]
    scheduler2 = Scheduler()
    with_crash = scheduler2.run(
        candidate,
        max_steps=max_steps,
        injections=[
            Injection(first_output_step + 1, Action("crash", victim))
        ],
    )
    trace = list(with_crash.actions)
    assert not spec.accepts(trace), (
        "candidate unexpectedly satisfied Marabout; "
        "the prediction argument requires determinism"
    )
    return MaraboutRefutation(
        reason=(
            f"the candidate output the empty faulty set before any crash; "
            f"crashing location {victim} immediately afterwards makes "
            f"faulty(t) = {{{victim}}}, contradicting that output"
        ),
        trace=trace,
        fault_pattern_note=f"crash {victim} after the first output",
    )

"""Solvability relations between crash problems and AFDs (Section 5).

``P' ⪰_E P`` ("P' is sufficient to solve P in environment E") holds iff
some distributed algorithm A solves P using P' in E: in every fair trace
of the composed system, if the events of P' conform to T_{P'}, then the
events of P conform to T_P.

For AFDs the environment is irrelevant (Lemma 1), giving the detector
order ``D ⪰ D'`` ("D is stronger than D'").  :class:`Reduction` packages a
witness algorithm for one ⪰ edge; :func:`evaluate_reduction` runs it under
a fault pattern and checks the implication on the resulting trace, which
is how the experiments validate Theorem 15 (transitivity), Theorem 18 and
Corollary 19 (stronger detectors solve more problems).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Scheduler, SchedulerPolicy
from repro.core.afd import AFD, CheckResult
from repro.system.crash import CrashAutomaton
from repro.system.fault_pattern import FaultPattern
from repro.system.process import DistributedAlgorithm


@dataclass
class ReductionOutcome:
    """The result of running a reduction under one fault pattern.

    ``holds`` is the implication the definition of ⪰ requires: *if* the
    source-detector events conform to T_source, *then* the target events
    conform to T_target.  ``premise``/``conclusion`` carry the detailed
    check results.
    """

    premise: CheckResult
    conclusion: CheckResult
    source_events: List[Action] = field(default_factory=list)
    target_events: List[Action] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return (not self.premise.ok) or self.conclusion.ok

    @property
    def vacuous(self) -> bool:
        """True when the premise failed (the implication holds trivially)."""
        return not self.premise.ok


@dataclass
class Reduction:
    """A witness that ``source ⪰ target``: an algorithm transforming
    source-detector outputs into target-detector outputs.

    Parameters
    ----------
    source_factory / target_factory:
        ``factory(locations) -> AFD``.
    algorithm_factory:
        ``factory(locations) -> DistributedAlgorithm`` building the
        transformation algorithm.
    name:
        Label, e.g. ``"P>=Omega"``.
    needs_channels:
        Whether the witness algorithm exchanges messages (the
        completeness-boosting reductions do; per-event relays do not).
    """

    name: str
    source_factory: Callable[[Sequence[int]], AFD]
    target_factory: Callable[[Sequence[int]], AFD]
    algorithm_factory: Callable[[Sequence[int]], DistributedAlgorithm]
    needs_channels: bool = False

    def instantiate(self, locations: Sequence[int]):
        return (
            self.source_factory(locations),
            self.target_factory(locations),
            self.algorithm_factory(locations),
        )


def evaluate_reduction(
    source: AFD,
    target: AFD,
    algorithm: DistributedAlgorithm,
    fault_pattern: FaultPattern,
    max_steps: int = 600,
    policy: Optional[SchedulerPolicy] = None,
    source_automaton: Optional[Automaton] = None,
    extra_components: Sequence[Automaton] = (),
    min_live_outputs: int = 1,
    include_channels: bool = False,
) -> ReductionOutcome:
    """Run ``algorithm`` fed by the source detector's generator automaton
    and check the ⪰ implication on the resulting trace.

    The system composed is: source generator + algorithm processes + crash
    automaton (+ any ``extra_components``).  Per-event relays exchange no
    messages so channels are omitted by default; pass
    ``include_channels=True`` for message-passing witnesses such as the
    completeness-boosting algorithm.
    """
    from repro.system.channel import make_channels

    components: List[Automaton] = [
        source_automaton if source_automaton is not None else source.automaton()
    ]
    components.extend(algorithm.automata())
    components.append(CrashAutomaton(list(source.locations)))
    if include_channels:
        components.extend(make_channels(list(source.locations)))
    components.extend(extra_components)
    system = Composition(components, name=f"reduce({source.name}->{target.name})")
    scheduler = Scheduler(policy)
    execution = scheduler.run(
        system,
        max_steps=max_steps,
        injections=fault_pattern.injections(),
    )
    events = list(execution.actions)
    source_events = source.project_events(events)
    target_events = target.project_events(events)
    premise = source.check_limit(source_events, min_live_outputs)
    conclusion = target.check_limit(target_events, min_live_outputs)
    return ReductionOutcome(
        premise=premise,
        conclusion=conclusion,
        source_events=source_events,
        target_events=target_events,
    )

"""Algorithm 3: self-implementability of AFDs (Section 6).

``A^self`` is a distributed algorithm that uses an arbitrary AFD D to
solve a renaming D' of D, establishing Theorem 13 and Corollary 14 (every
AFD is self-implementable, ``D ⪰ D``).

Each location i keeps a FIFO queue ``fdq`` of the D-outputs received at i.
When ``d ∈ O_{D,i}`` occurs, it is enqueued; the output ``d' ∈ O_{D',i}``
is enabled exactly when ``r_IO^{-1}(d')`` is at the head of the queue, and
performing it dequeues.  A crash disables the outputs permanently (the
:class:`~repro.system.process.ProcessAutomaton` wrapper provides that).

The proof of correctness (Lemmas 2–12) hinges on the queue behavior:
outputs at each location form a prefix of the inputs there (closure under
sampling absorbs the unemitted suffix at faulty locations), and the
interleaving of emissions across locations is a constrained reordering of
the input interleaving.  The test suite re-traces those lemmas on concrete
executions.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.core.afd import AFD
from repro.core.renaming import Renaming
from repro.system.process import DistributedAlgorithm, ProcessAutomaton


class SelfImplementationProcess(ProcessAutomaton):
    """The automaton ``A^self_i`` of Algorithm 3.

    Core state: the tuple ``fdq`` of queued D-output actions at this
    location (head first).
    """

    uses_channels = False  # pure detector transformation: no messages

    def __init__(self, location: int, afd: AFD, renaming: Renaming):
        self.afd = afd
        self.renaming = renaming
        super().__init__(location, name=f"Aself[{location}]")

    # -- Signature ------------------------------------------------------------

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: self.afd.is_output(a) and a.location == self.location,
            f"O_D at {self.location}",
            keys=((self.afd.output_name, self.location),),
        )

    def core_outputs(self) -> ActionSet:
        # Keys undeclared: the names are the renaming's, not the AFD's.
        return PredicateActionSet(
            lambda a: (
                self.renaming.covers_renamed(a)
                and not a.name == "crash"
                and a.location == self.location
                and self.afd.is_output(self.renaming.invert(a))
            ),
            f"O_D' at {self.location}",
        )

    # -- Transitions ----------------------------------------------------------

    def core_initial(self) -> State:
        return ()  # fdq, initially empty

    def core_apply(self, core: State, action: Action) -> State:
        if self.afd.is_output(action) and action.location == self.location:
            return core + (action,)  # input d: add d to fdq
        if core and action == self.renaming.apply(core[0]):
            return core[1:]  # output d': delete head of fdq
        return core

    def core_enabled(self, core: State) -> Iterable[Action]:
        if core:
            yield self.renaming.apply(core[0])


def self_implementation_algorithm(
    afd: AFD, suffix: str = "'"
) -> Tuple[DistributedAlgorithm, Renaming]:
    """Build ``A^self`` for ``afd`` and the renaming r_IO it realizes.

    Returns the distributed algorithm together with the renaming, so
    callers can check the emitted trace against the renamed AFD
    ``afd.renamed(suffix)``.
    """
    renaming = afd.renaming(suffix)
    processes: Dict[int, ProcessAutomaton] = {
        i: SelfImplementationProcess(i, afd, renaming)
        for i in afd.locations
    }
    return DistributedAlgorithm(processes), renaming

"""Generic detector-output relays: the engine behind ⪰ reductions.

A :class:`TransformRelayProcess` at location i consumes the outputs of a
source AFD at i and emits outputs of a target AFD at i, computed by a pure
transformation function.  Like Algorithm 3 (which is the special case
where the transformation is a renaming), it buffers inputs in a FIFO queue
so no source output is lost and emission order is preserved per location —
the structure the closure properties of AFDs are built around.

All the classic reductions among the zoo detectors (P ⪰ ◇P, P ⪰ Omega,
◇P ⪰ Omega, Omega ⪰ anti-Omega, Omega ⪰ Omega^k, P ⪰ Sigma, P ⪰ Psi^k,
...) are expressible as per-event transformations of this shape; see
:func:`repro.detectors.registry.known_reductions`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.signature import ActionSet, PredicateActionSet
from repro.core.afd import AFD
from repro.system.process import DistributedAlgorithm, ProcessAutomaton

#: ``transform(input_action) -> output_action or None`` (None: drop).
Transform = Callable[[Action], Optional[Action]]


class TransformRelayProcess(ProcessAutomaton):
    """Consume source-detector outputs at one location, emit transformed
    target-detector outputs.

    Core state: the FIFO tuple of already-transformed actions awaiting
    emission.
    """

    uses_channels = False  # pure detector transformation: no messages

    def __init__(
        self,
        location: int,
        source: AFD,
        target: AFD,
        transform: Transform,
        name: str = "",
    ):
        self.source = source
        self.target = target
        self.transform = transform
        super().__init__(
            location, name=name or f"relay[{source.name}->{target.name}][{location}]"
        )

    # -- Signature -----------------------------------------------------------

    def core_inputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: (
                self.source.is_output(a) and a.location == self.location
            ),
            f"O_{self.source.name} at {self.location}",
        )

    def core_outputs(self) -> ActionSet:
        return PredicateActionSet(
            lambda a: (
                self.target.is_output(a) and a.location == self.location
            ),
            f"O_{self.target.name} at {self.location}",
        )

    # -- Transitions -----------------------------------------------------------

    def core_initial(self) -> State:
        return ()

    def core_apply(self, core: State, action: Action) -> State:
        if self.source.is_output(action) and action.location == self.location:
            transformed = self.transform(action)
            if transformed is None:
                return core
            if transformed.location != self.location:
                raise ValueError(
                    f"relay transform moved an event across locations: "
                    f"{action} -> {transformed}"
                )
            return core + (transformed,)
        if core and action == core[0]:
            return core[1:]
        return core

    def core_enabled(self, core: State) -> Iterable[Action]:
        if core:
            yield core[0]


def relay_algorithm(
    source: AFD,
    target: AFD,
    transform_factory: Callable[[int], Transform],
) -> DistributedAlgorithm:
    """A distributed algorithm of relays, one per location.

    ``transform_factory(location)`` builds the per-location transformation
    (most transformations ignore the location, but e.g. renamings of
    located vocabularies may not).
    """
    processes: Dict[int, ProcessAutomaton] = {
        i: TransformRelayProcess(i, source, target, transform_factory(i))
        for i in source.locations
    }
    return DistributedAlgorithm(processes)

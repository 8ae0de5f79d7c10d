"""Fault patterns: which locations crash, and when.

The paper's crash automaton (Section 4.4) may emit any sequence over the
crash actions; in a simulation the adversary's choice is a concrete plan.
A :class:`FaultPattern` maps each faulty location to the global step at
which its crash event fires, and converts itself into scheduler
:class:`~repro.ioa.scheduler.Injection` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.scheduler import Injection

CRASH = "crash"


def crash_action(location: int) -> Action:
    """The action ``crash_i`` (an element of the paper's set I-hat)."""
    return Action(CRASH, location)


def is_crash(action: Action) -> bool:
    """Whether an action is a crash event."""
    return action.name == CRASH


@dataclass(frozen=True)
class FaultPattern:
    """A crash plan: location -> global step of its crash event.

    Examples
    --------
    >>> fp = FaultPattern({2: 10}, locations=(0, 1, 2))
    >>> fp.faulty
    frozenset({2})
    >>> sorted(fp.live)
    [0, 1]
    """

    crashes: Mapping[int, int] = field(default_factory=dict)
    locations: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", dict(self.crashes))
        unknown = set(self.crashes) - set(self.locations)
        if self.locations and unknown:
            raise ValueError(
                f"crash plan mentions unknown locations: {sorted(unknown)}"
            )

    @property
    def faulty(self) -> FrozenSet[int]:
        """Locations that crash under this pattern."""
        return frozenset(self.crashes)

    @property
    def live(self) -> FrozenSet[int]:
        """Locations that never crash under this pattern."""
        return frozenset(self.locations) - self.faulty

    @property
    def num_faulty(self) -> int:
        return len(self.crashes)

    def injections(self) -> List[Injection]:
        """Scheduler injections realizing this pattern."""
        return [
            Injection(step, crash_action(location))
            for location, step in sorted(self.crashes.items())
        ]

    def crash_step(self, location: int):
        """The step ``location`` crashes at, or None if it is live."""
        return self.crashes.get(location)

    @staticmethod
    def crash_free(locations: Sequence[int]) -> "FaultPattern":
        """The failure-free pattern over the given locations."""
        return FaultPattern({}, tuple(locations))

    @staticmethod
    def random(
        locations: Sequence[int],
        max_faulty: int,
        horizon: int,
        seed: int = 0,
        exactly: bool = False,
    ) -> "FaultPattern":
        """A random pattern crashing at most (or exactly) ``max_faulty``
        locations at uniformly random steps in ``[0, horizon)``."""
        if max_faulty > len(locations):
            raise ValueError("cannot crash more locations than exist")
        rng = random.Random(seed)
        count = max_faulty if exactly else rng.randint(0, max_faulty)
        victims = rng.sample(list(locations), count)
        return FaultPattern(
            {v: rng.randrange(horizon) for v in victims}, tuple(locations)
        )

    @staticmethod
    def enumerate_single_crash(
        locations: Sequence[int], steps: Iterable[int]
    ) -> List["FaultPattern"]:
        """Every pattern crashing exactly one location at one of ``steps``."""
        return [
            FaultPattern({loc: step}, tuple(locations))
            for loc in locations
            for step in steps
        ]

"""The timed-implementation registry.

Mirrors :mod:`repro.detectors.registry` for the timed layer: canonical
names plus forgiving aliases, a resolver that fails loudly with the
valid spellings, and an iterator the contract linter uses to sweep
every registered implementation.  Unlike the detector zoo — whose
automata *generate* AFD-canonical traces by construction — a timed
implementation merely *aims* for its target AFD; whether a given run's
trace lands in ``T_D`` depends on the timing assumptions and fault
plan, which is exactly what the conformance oracles decide.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.core.afd import AFD
from repro.timed.automaton import TimedDetectorAutomaton
from repro.timed.heartbeat import HeartbeatDetector
from repro.timed.leader_lease import LeaderLeaseDetector
from repro.timed.pingpong import PingPongDetector

#: Canonical name -> implementation class.  Keys are the spellings used
#: in ``ExperimentSpec.meta()`` / cache keys, sweep labels, and
#: the E18 series.
IMPLEMENTATIONS: Dict[str, Type[TimedDetectorAutomaton]] = {
    "heartbeat": HeartbeatDetector,
    "ping-pong": PingPongDetector,
    "leader-lease": LeaderLeaseDetector,
}

#: Forgiving spellings -> canonical names.
ALIASES: Dict[str, str] = {
    "hb": "heartbeat",
    "heart-beat": "heartbeat",
    "pingpong": "ping-pong",
    "ping": "ping-pong",
    "lease": "leader-lease",
    "leader": "leader-lease",
    "omega-lease": "leader-lease",
}


def implementation_names() -> List[str]:
    """The canonical implementation names, sorted."""
    return sorted(IMPLEMENTATIONS)


def resolve_implementation(name: str) -> str:
    """Map ``name`` (canonical or alias, any case) to its canonical name."""
    key = str(name).strip().lower().replace("_", "-")
    key = ALIASES.get(key, key)
    if key not in IMPLEMENTATIONS:
        raise ValueError(
            f"unknown timed implementation {name!r}; known: "
            + ", ".join(implementation_names())
        )
    return key


def build_automaton(
    name: str,
    locations: Sequence[int],
    params: Any = None,
    seed: int = 0,
    plan: Optional[Any] = None,
) -> TimedDetectorAutomaton:
    """Instantiate the implementation ``name`` over ``locations``."""
    cls = IMPLEMENTATIONS[resolve_implementation(name)]
    return cls(locations, params=params, seed=seed, plan=plan)


def target_afd(name: str, locations: Sequence[int]) -> AFD:
    """The AFD specification implementation ``name`` aims for."""
    return build_automaton(name, locations).afd()


def iter_timed_automata(
    locations: Sequence[int] = (0, 1, 2),
) -> Iterator[Tuple[str, TimedDetectorAutomaton]]:
    """Yield ``(canonical name, instance)`` for every implementation.

    The contract linter sweeps these (plus their compiled twins) with
    crash probes, exactly as it does the detector zoo.
    """
    for name in implementation_names():
        yield name, build_automaton(name, locations)

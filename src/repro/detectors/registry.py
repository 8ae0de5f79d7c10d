"""Registry of zoo detectors and the known ⪰ reductions among them.

The reductions below are the classical strength relationships, each
witnessed by a per-event relay transformation
(:mod:`repro.algorithms.relay`).  Together with self-implementability
(Algorithm 3) they generate the AFD hierarchy explored in
:mod:`repro.analysis.hierarchy` and experiments E7/E8.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton
from repro.core.afd import AFD
from repro.core.ordering import Reduction
from repro.detectors.anti_omega import ANTI_OMEGA_OUTPUT, AntiOmega
from repro.detectors.base import sorted_tuple
from repro.detectors.eventually_perfect import (
    EVENTUALLY_PERFECT_OUTPUT,
    EventuallyPerfect,
)
from repro.detectors.omega import OMEGA_OUTPUT, Omega
from repro.detectors.omega_k import OMEGA_K_OUTPUT, OmegaK, _padded_leader_set
from repro.detectors.perfect import Perfect
from repro.detectors.psi_k import PSI_K_OUTPUT, PsiK
from repro.detectors.quorum import SIGMA_OUTPUT, Sigma
from repro.detectors.strong import (
    EVENTUALLY_STRONG_OUTPUT,
    STRONG_OUTPUT,
    EventuallyStrong,
    Strong,
)
from repro.detectors.weak import (
    EVENTUALLY_QUASI_OUTPUT,
    EVENTUALLY_WEAK_OUTPUT,
    QUASI_OUTPUT,
    WEAK_OUTPUT,
    EventuallyQuasi,
    EventuallyWeak,
    Quasi,
    Weak,
)

#: ``ZOO[name]`` builds the named detector over a location set.  The
#: parameterized families are registered at representative k values.
ZOO: Dict[str, Callable[[Sequence[int]], AFD]] = {
    "Omega": Omega,
    "P": Perfect,
    "EvP": EventuallyPerfect,
    "Sigma": Sigma,
    "antiOmega": AntiOmega,
    "S": Strong,
    "EvS": EventuallyStrong,
    "Q": Quasi,
    "W": Weak,
    "EvQ": EventuallyQuasi,
    "EvW": EventuallyWeak,
    "Omega^1": lambda locs: OmegaK(locs, 1),
    "Omega^2": lambda locs: OmegaK(locs, 2),
    "Psi^1": lambda locs: PsiK(locs, 1),
    "Psi^2": lambda locs: PsiK(locs, 2),
}


#: Normalized aliases -> canonical ZOO keys.  Parameterized families map
#: to a family marker resolved with kwargs by :func:`resolve_detector`.
_FAMILIES: Dict[str, Callable[..., AFD]] = {
    "omega-k": lambda locations, k: OmegaK(locations, k),
    "psi-k": lambda locations, k: PsiK(locations, k),
}

_ALIASES: Dict[str, str] = {
    "omega": "Omega",
    "leader": "Omega",
    "p": "P",
    "perfect": "P",
    "evp": "EvP",
    "eventually-perfect": "EvP",
    "diamond-p": "EvP",
    "sigma": "Sigma",
    "quorum": "Sigma",
    "anti-omega": "antiOmega",
    "antiomega": "antiOmega",
    "s": "S",
    "strong": "S",
    "evs": "EvS",
    "eventually-strong": "EvS",
    "diamond-s": "EvS",
    "q": "Q",
    "quasi": "Q",
    "w": "W",
    "weak": "W",
    "evq": "EvQ",
    "eventually-quasi": "EvQ",
    "evw": "EvW",
    "eventually-weak": "EvW",
}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def detector_names() -> List[str]:
    """Every accepted detector name: ZOO keys, aliases and families."""
    return sorted(set(ZOO) | set(_ALIASES) | set(_FAMILIES))


def resolve_detector(detector, locations: Sequence[int], **kwargs) -> AFD:
    """Instantiate a detector from whatever names one.

    Accepts an :class:`~repro.core.afd.AFD` instance (returned as-is; an
    error if kwargs are also given), a class/factory callable, or a string
    name — a ZOO key (``"Omega"``), a case-insensitive alias
    (``"omega"``, ``"eventually-strong"``) or a parameterized family
    (``"omega-k"``/``"psi-k"`` with a ``k=`` kwarg).  Raises
    :class:`ValueError` listing the valid names on an unknown string.
    """
    if isinstance(detector, AFD):
        if kwargs:
            raise ValueError(
                "detector_kwargs have no effect on an already-instantiated "
                f"AFD ({type(detector).__name__})"
            )
        return detector
    if isinstance(detector, str):
        key = _normalize(detector)
        if key in _FAMILIES:
            try:
                return _FAMILIES[key](tuple(locations), **kwargs)
            except TypeError as exc:
                raise ValueError(
                    f"detector {detector!r} needs its family parameter, "
                    'e.g. detector_kwargs={"k": 2}: ' + str(exc)
                ) from None
        factory = None
        if detector in ZOO:
            factory = ZOO[detector]
        elif key in _ALIASES:
            factory = ZOO[_ALIASES[key]]
        else:
            for zoo_name in ZOO:  # "omega^2" == "Omega^2"
                if _normalize(zoo_name) == key:
                    factory = ZOO[zoo_name]
                    break
        if factory is None:
            raise ValueError(
                f"unknown detector name {detector!r}; valid names: "
                + ", ".join(detector_names())
            )
        if kwargs:
            raise ValueError(
                f"detector {detector!r} takes no detector_kwargs "
                f"(got {sorted(kwargs)}); parameterized families are "
                + ", ".join(sorted(_FAMILIES))
            )
        return factory(tuple(locations))
    if callable(detector):
        return detector(tuple(locations), **kwargs)
    raise TypeError(
        "detector must be an AFD instance, a factory callable, or a "
        f"string name; got {type(detector).__name__}"
    )


#: Representative ``k`` values at which the parameterized families are
#: instantiated by :func:`iter_registered_automata`.  The ZOO already
#: registers k=1,2 under their ``Omega^k``/``Psi^k`` spellings; k=3 adds
#: one instance per family beyond the hand-registered ones.
_FAMILY_LINT_KS: Tuple[int, ...] = (1, 2, 3)


def iter_registered_automata(
    locations: Sequence[int] = (0, 1, 2),
) -> Iterator[Tuple[str, AFD, "Automaton"]]:
    """Yield ``(name, afd, generator_automaton)`` for every registered
    detector.

    Covers each ZOO entry plus the parameterized families
    (``omega-k``/``psi-k``) at the representative ``k`` values in
    :data:`_FAMILY_LINT_KS`, so tools that must see *every* named
    detector family — the contract linter first among them — need no
    hand-maintained list.  Names are ``"Omega"``-style ZOO keys for ZOO
    entries and ``"omega-k(k=3)"``-style labels for family instances.
    """
    locs = tuple(locations)
    for name in sorted(ZOO):
        afd = ZOO[name](locs)
        yield name, afd, afd.automaton()
    for family in sorted(_FAMILIES):
        for k in _FAMILY_LINT_KS:
            afd = _FAMILIES[family](locs, k=k)
            yield f"{family}(k={k})", afd, afd.automaton()


def instantiate_for_lint(
    name: str, locations: Sequence[int] = (0, 1, 2), **kwargs
) -> Tuple[AFD, "Automaton"]:
    """Resolve ``name`` and return ``(afd, generator_automaton)``.

    A thin convenience over :func:`resolve_detector` for lint-like tools
    that always want the executable generator automaton alongside the
    AFD; parameterized families default to ``k=1`` when no ``k=`` is
    given.
    """
    key = _normalize(name) if isinstance(name, str) else name
    if isinstance(key, str) and key in _FAMILIES and "k" not in kwargs:
        kwargs = dict(kwargs, k=1)
    afd = resolve_detector(name, locations, **kwargs)
    return afd, afd.automaton()


def instantiate_compiled_for_lint(
    name: str, locations: Sequence[int] = (0, 1, 2), **kwargs
) -> Tuple[AFD, "Automaton"]:
    """Like :func:`instantiate_for_lint`, but the automaton half is the
    detector's compiled core (:mod:`repro.compiled.tables`).

    The compiled core implements the full ``Automaton`` interface over
    its interned tables, so the contract linter can run the same
    REPROC02/REPROC04 probes against the compiled apply thunks that it
    runs against the interpreted ``apply`` — any divergence between the
    two surfaces as a contract finding on the compiled twin.
    """
    from repro.compiled.tables import compile_automaton

    afd, automaton = instantiate_for_lint(name, locations, **kwargs)
    return afd, compile_automaton(automaton)


def make_detector(name: str, locations: Sequence[int]) -> AFD:
    """Instantiate a zoo detector by (exact) name.

    Kept for the hierarchy machinery; :func:`resolve_detector` is the
    user-facing resolver and also accepts aliases and instances.
    """
    if name not in ZOO:
        raise KeyError(f"unknown detector {name!r}; known: {sorted(ZOO)}")
    return ZOO[name](locations)


# ---------------------------------------------------------------------------
# Per-event transformations witnessing the classical reductions
# ---------------------------------------------------------------------------


def _relabel(target_name: str) -> Callable[[Action], Action]:
    def transform(action: Action) -> Action:
        return Action(target_name, action.location, action.payload)

    return transform


def _suspects_to_leader(locations: Sequence[int]):
    locations = tuple(locations)

    def transform(action: Action) -> Action:
        suspects = set(action.payload[0])
        leader = min(i for i in locations if i not in suspects)
        return Action(OMEGA_OUTPUT, action.location, (leader,))

    return transform


def _suspects_to_quorum(locations: Sequence[int]):
    locations = tuple(locations)

    def transform(action: Action) -> Action:
        suspects = set(action.payload[0])
        quorum = sorted_tuple(i for i in locations if i not in suspects)
        return Action(SIGMA_OUTPUT, action.location, (quorum,))

    return transform


def _suspects_to_psi(locations: Sequence[int], k: int):
    locations = tuple(locations)

    def transform(action: Action) -> Action:
        suspects = frozenset(action.payload[0])
        quorum = sorted_tuple(i for i in locations if i not in suspects)
        leaders = _padded_leader_set(locations, suspects, k)
        return Action(PSI_K_OUTPUT, action.location, (quorum, leaders))

    return transform


def _leader_to_anti(locations: Sequence[int]):
    locations = tuple(locations)
    if len(locations) < 2:
        raise ValueError("Omega >= antiOmega needs at least 2 locations")

    def transform(action: Action) -> Action:
        leader = action.payload[0]
        avoidee = max(i for i in locations if i != leader)
        return Action(ANTI_OMEGA_OUTPUT, action.location, (avoidee,))

    return transform


def _leader_to_leader_set(locations: Sequence[int], k: int):
    locations = tuple(locations)

    def transform(action: Action) -> Action:
        leader = action.payload[0]
        others = [i for i in locations if i != leader]
        leaders = sorted_tuple([leader] + others[: k - 1])
        return Action(OMEGA_K_OUTPUT, action.location, (leaders,))

    return transform


# ---------------------------------------------------------------------------
# The reduction catalogue
# ---------------------------------------------------------------------------


def known_reductions() -> List[Reduction]:
    """All registered ⪰ edges, each with its witness algorithm factory."""
    from repro.algorithms.completeness_boost import (
        completeness_boost_algorithm,
    )
    from repro.algorithms.relay import relay_algorithm

    def edge(
        name: str,
        source_name: str,
        target_name: str,
        transform_builder,
    ) -> Reduction:
        def algorithm_factory(locations: Sequence[int]):
            source = make_detector(source_name, locations)
            target = make_detector(target_name, locations)
            transform = transform_builder(locations)
            return relay_algorithm(source, target, lambda _i: transform)

        return Reduction(
            name=name,
            source_factory=lambda locs, s=source_name: make_detector(s, locs),
            target_factory=lambda locs, t=target_name: make_detector(t, locs),
            algorithm_factory=algorithm_factory,
        )

    def boost_edge(name: str, source_name: str, target_name: str) -> Reduction:
        """A Chandra–Toueg completeness boost: message-passing witness."""

        def algorithm_factory(locations: Sequence[int]):
            source = make_detector(source_name, locations)
            target = make_detector(target_name, locations)
            return completeness_boost_algorithm(source, target)

        return Reduction(
            name=name,
            source_factory=lambda locs, s=source_name: make_detector(s, locs),
            target_factory=lambda locs, t=target_name: make_detector(t, locs),
            algorithm_factory=algorithm_factory,
            needs_channels=True,
        )

    return [
        edge("P>=EvP", "P", "EvP", lambda locs: _relabel(EVENTUALLY_PERFECT_OUTPUT)),
        edge("P>=S", "P", "S", lambda locs: _relabel(STRONG_OUTPUT)),
        edge("P>=EvS", "P", "EvS", lambda locs: _relabel(EVENTUALLY_STRONG_OUTPUT)),
        edge("S>=EvS", "S", "EvS", lambda locs: _relabel(EVENTUALLY_STRONG_OUTPUT)),
        edge("EvP>=EvS", "EvP", "EvS", lambda locs: _relabel(EVENTUALLY_STRONG_OUTPUT)),
        edge("P>=Q", "P", "Q", lambda locs: _relabel(QUASI_OUTPUT)),
        edge("S>=W", "S", "W", lambda locs: _relabel(WEAK_OUTPUT)),
        edge("EvP>=EvQ", "EvP", "EvQ", lambda locs: _relabel(EVENTUALLY_QUASI_OUTPUT)),
        edge("EvS>=EvW", "EvS", "EvW", lambda locs: _relabel(EVENTUALLY_WEAK_OUTPUT)),
        edge("Q>=EvQ", "Q", "EvQ", lambda locs: _relabel(EVENTUALLY_QUASI_OUTPUT)),
        edge("W>=EvW", "W", "EvW", lambda locs: _relabel(EVENTUALLY_WEAK_OUTPUT)),
        edge("P>=Omega", "P", "Omega", _suspects_to_leader),
        edge("EvP>=Omega", "EvP", "Omega", _suspects_to_leader),
        edge("P>=Sigma", "P", "Sigma", _suspects_to_quorum),
        edge("P>=Psi^2", "P", "Psi^2", lambda locs: _suspects_to_psi(locs, 2)),
        edge("Omega>=antiOmega", "Omega", "antiOmega", _leader_to_anti),
        edge("Omega>=Omega^1", "Omega", "Omega^1", lambda locs: _leader_to_leader_set(locs, 1)),
        edge("Omega>=Omega^2", "Omega", "Omega^2", lambda locs: _leader_to_leader_set(locs, 2)),
        # Chandra–Toueg [5]: weak completeness boosts to strong
        # completeness, preserving the accuracy property.
        boost_edge("Q>=P", "Q", "P"),
        boost_edge("W>=S", "W", "S"),
        boost_edge("EvQ>=EvP", "EvQ", "EvP"),
        boost_edge("EvW>=EvS", "EvW", "EvS"),
    ]


def reductions_from(source_name: str) -> List[Reduction]:
    """The registered edges whose source is ``source_name``."""
    prefix = f"{source_name}>="
    return [r for r in known_reductions() if r.name.startswith(prefix)]

"""The AFD hierarchy graph (Section 7.1).

Nodes are zoo detectors; a directed edge D -> D' records a registered
reduction witnessing D ⪰ D'.  Theorem 15 makes ⪰ transitive, so strength
queries reduce to reachability.  Known *separations* (D' is not stronger
than D) are recorded as data with their literature source; together with
Corollary 19 they justify 'strictly stronger' claims: if D ⪰ D' and
D' ⪰̸ D then the problems solvable with D strictly contain those solvable
with D'.

:func:`validate_hierarchy` empirically re-checks every registered edge by
running its witness algorithm under a battery of fault patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import networkx as nx

from repro.core.ordering import evaluate_reduction
from repro.detectors.registry import known_reductions
from repro.system.fault_pattern import FaultPattern

#: Known non-reductions (source cannot implement target), with citations.
KNOWN_SEPARATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("EvP", "P", "◇P gives no accuracy before stabilization [5]"),
    ("Omega", "P", "Omega is strictly weaker than P [4, 5]"),
    ("Omega", "EvP", "Omega carries no suspect sets [4]"),
    ("antiOmega", "Omega", "anti-Omega is weaker than Omega [31]"),
    ("Sigma", "Omega", "quorums do not elect leaders [8]"),
    ("Omega^2", "Omega", "Omega^k weakens as k grows [23]"),
    ("EvS", "S", "eventual weak accuracy is weaker than weak accuracy [5]"),
    ("EvS", "EvP", "◇S suspects live processes forever at some locations [5]"),
    ("S", "P", "weak accuracy is weaker than strong accuracy [5]"),
    ("EvW", "W", "eventual weak accuracy is weaker than weak accuracy [5]"),
)


def build_hierarchy_graph() -> "nx.DiGraph":
    """The directed graph of registered ⪰ edges over the zoo."""
    graph = nx.DiGraph()
    for name in (
        "P",
        "EvP",
        "S",
        "EvS",
        "Q",
        "W",
        "EvQ",
        "EvW",
        "Omega",
        "antiOmega",
        "Sigma",
        "Omega^1",
        "Omega^2",
        "Psi^1",
        "Psi^2",
    ):
        graph.add_node(name)
    for reduction in known_reductions():
        source, target = reduction.name.split(">=")
        graph.add_edge(source, target, reduction=reduction.name)
    # Self-implementability (Corollary 14): every AFD implements itself.
    for name in list(graph.nodes):
        graph.add_edge(name, name, reduction="Aself")
    return graph


def is_stronger(source: str, target: str) -> bool:
    """Whether ``source ⪰ target`` follows from registered edges and
    transitivity (Theorem 15)."""
    graph = build_hierarchy_graph()
    if source not in graph or target not in graph:
        raise KeyError(f"unknown detector: {source!r} or {target!r}")
    return nx.has_path(graph, source, target)


def is_strictly_stronger(source: str, target: str) -> bool:
    """``source ⪰ target`` is registered and ``target ⪰ source`` is a
    known separation."""
    if not is_stronger(source, target):
        return False
    return any(
        s == target and t == source for (s, t, _why) in KNOWN_SEPARATIONS
    )


def weakest_among(candidates: Sequence[str]) -> List[str]:
    """The candidates that are weakest within the set (Section 7.2):
    D is weakest in a set of AFDs solving a problem iff every member of
    the set is stronger than D (by registered reductions + transitivity).

    Returns the (possibly empty, possibly plural) list of such members.
    """
    graph = build_hierarchy_graph()
    unknown = [c for c in candidates if c not in graph]
    if unknown:
        raise KeyError(f"unknown detectors: {unknown}")
    return [
        d
        for d in candidates
        if all(nx.has_path(graph, other, d) for other in candidates)
    ]


def hierarchy_dot() -> str:
    """The hierarchy graph as Graphviz DOT source (self-loops omitted),
    for inclusion in papers/notes: ``dot -Tsvg`` renders the lattice."""
    graph = build_hierarchy_graph()
    lines = [
        "digraph afd_hierarchy {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for source, target, data in sorted(graph.edges(data=True)):
        if source == target:
            continue
        lines.append(
            f'  "{source}" -> "{target}" '
            f'[label="{data.get("reduction", "")}", fontsize=9];'
        )
    lines.append("}")
    return "\n".join(lines)


@dataclass
class HierarchyValidation:
    """The outcome of empirically validating every registered edge."""

    edges_checked: int = 0
    edges_held: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def all_held(self) -> bool:
        return self.edges_checked > 0 and self.edges_held == self.edges_checked


def validate_hierarchy(
    locations: Sequence[int],
    fault_patterns: Sequence[FaultPattern],
    max_steps: int = 600,
) -> HierarchyValidation:
    """Run every registered reduction under every fault pattern and check
    the ⪰ implication on the resulting traces."""
    validation = HierarchyValidation()
    for reduction in known_reductions():
        source, target, algorithm = reduction.instantiate(locations)
        for pattern in fault_patterns:
            # Message-passing witnesses need more steps: gossip must
            # propagate through the channels before stabilization.
            steps = max_steps * (3 if reduction.needs_channels else 1)
            outcome = evaluate_reduction(
                source,
                target,
                algorithm,
                pattern,
                max_steps=steps,
                include_channels=reduction.needs_channels,
            )
            validation.edges_checked += 1
            if outcome.holds and not outcome.vacuous:
                validation.edges_held += 1
            else:
                validation.failures.append(
                    f"{reduction.name} under {dict(pattern.crashes)}: "
                    f"premise={outcome.premise.ok} "
                    f"conclusion={outcome.conclusion.ok} "
                    f"{outcome.conclusion.reasons[:1]}"
                )
    return validation

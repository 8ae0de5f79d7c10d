"""Hooks and their critical locations (Section 9.6).

A *hook* is a triple (N, l, r) of a tree node and two labels such that

1. N is bivalent,
2. N's l-child is v-valent (for some v), and
3. the l-child of N's r-child is (1-v)-valent.

The main theorem of the section (Theorem 59): for every FD sequence
t_D ∈ T_D with at most f crashes, R^{t_D} contains a hook; for every hook,
the action tags of the l- and r-edges are non-bottom (Lemma 56), occur at
the same location (Lemma 57) — the hook's *critical location* — and that
location is live in t_D (Lemma 58).  The critical location is where the
failure detector's information decides consensus: crash it and the
decision could not have hinged there.

:func:`find_hooks` enumerates hooks over the quotient graph;
:class:`HookSearch` packages the Theorem 59 property checks so the E13 and
E14 experiments can assert them wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.ioa.actions import Action
from repro.core.validity import live_locations
from repro.tree.tagged_tree import TaggedTreeGraph, TreeVertex
from repro.tree.valence import Valence, ValenceAnalysis


@dataclass(frozen=True)
class Hook:
    """A hook (N, l, r) together with its edge tags and valences."""

    node: TreeVertex
    l_label: str
    r_label: str
    l_action: Optional[Action]
    r_action: Optional[Action]
    l_child_valence: Valence
    rl_child_valence: Valence

    @property
    def critical_location(self) -> Optional[int]:
        """The shared location of the l- and r-edge action tags, or None
        if the tags are missing or disagree (Theorem 59 says neither can
        happen for a genuine hook)."""
        if self.l_action is None or self.r_action is None:
            return None
        if self.l_action.location != self.r_action.location:
            return None
        return self.l_action.location

    def satisfies_lemma56(self) -> bool:
        """Both action tags are non-bottom."""
        return self.l_action is not None and self.r_action is not None

    def satisfies_lemma57(self) -> bool:
        """Both action tags occur at the same location."""
        return (
            self.satisfies_lemma56()
            and self.l_action.location == self.r_action.location
        )

    def satisfies_lemma58(self, fd_sequence, locations) -> bool:
        """The critical location is live in t_D."""
        loc = self.critical_location
        return loc is not None and loc in live_locations(
            fd_sequence, locations
        )


def find_hooks(
    graph: TaggedTreeGraph,
    valence: ValenceAnalysis,
    max_hooks: Optional[int] = None,
) -> List[Hook]:
    """Enumerate hooks in the quotient graph.

    Scans every bivalent vertex N and every ordered label pair (l, r) with
    l != r, checking the valence pattern of the definition.  Self-loop
    (bottom) edges cannot form hooks (the child's valence equals the
    parent's, so it cannot be univalent when N is bivalent) but are still
    scanned for completeness — Lemma 56 is *verified*, not assumed.
    """
    hooks: List[Hook] = []

    # The scan probes raw value sets (``values_of``) and only wraps them
    # in :class:`Valence` for the hooks it actually emits — the
    # candidate space is bivalent vertices x label pairs, so the probe
    # path is the analysis hot loop.
    edges = graph.edges
    values_of = valence.values_of
    labels = graph.labels
    for node in valence.bivalent_vertices():
        node_edges = edges[node]
        for l_label in labels:
            l_action, l_child = node_edges[l_label]
            sl = values_of(l_child)
            if len(sl) != 1:
                continue
            (v,) = sl
            for r_label in labels:
                if r_label == l_label:
                    continue
                r_action, r_child = node_edges[r_label]
                _rl_action, rl_child = edges[r_child][l_label]
                srl = values_of(rl_child)
                if len(srl) == 1 and 1 - v in srl:
                    hooks.append(
                        Hook(
                            node=node,
                            l_label=l_label,
                            r_label=r_label,
                            l_action=l_action,
                            r_action=r_action,
                            l_child_valence=Valence(sl),
                            rl_child_valence=Valence(srl),
                        )
                    )
                    if max_hooks is not None and len(hooks) >= max_hooks:
                        return hooks
    return hooks


@dataclass
class HookReport:
    """Aggregate Theorem 59 verdicts over all hooks of one tree."""

    num_hooks: int
    all_lemma56: bool
    all_lemma57: bool
    all_lemma58: bool
    critical_locations: Set[int]

    @property
    def theorem59_holds(self) -> bool:
        return (
            self.num_hooks > 0
            and self.all_lemma56
            and self.all_lemma57
            and self.all_lemma58
        )


class HookSearch:
    """Find hooks and check the Theorem 59 properties in one sweep."""

    def __init__(
        self,
        graph: TaggedTreeGraph,
        valence: ValenceAnalysis,
        locations: Sequence[int],
    ):
        self.graph = graph
        self.valence = valence
        self.locations = tuple(locations)

    def report(self, max_hooks: Optional[int] = None) -> HookReport:
        hooks = find_hooks(self.graph, self.valence, max_hooks)
        fd = self.graph.fd_sequence
        return HookReport(
            num_hooks=len(hooks),
            all_lemma56=all(h.satisfies_lemma56() for h in hooks),
            all_lemma57=all(h.satisfies_lemma57() for h in hooks),
            all_lemma58=all(
                h.satisfies_lemma58(fd, self.locations) for h in hooks
            ),
            critical_locations={
                h.critical_location
                for h in hooks
                if h.critical_location is not None
            },
        )

"""The similar-modulo-i relation on tagged-tree nodes (Section 8.3).

``N ~_i N'`` holds when the only automaton that could distinguish the two
configurations is the (crashed) process at location i:

1. ``crash_i`` occurred in both executions;
2. process states agree at every location j != i;
3. channel states agree for every channel not *from* i;
4. for channels from i, N's queue is a prefix of N''s;
5. environment states agree at every j != i;
6. the FD-sequence tags agree.

Lemma 39 shows ~_i is preserved by taking l-children (up to bottom
edges), and Theorem 40 lifts that to descendants; the Lemma 58 case
analysis rides on these.  :class:`SimilarityChecker` evaluates the
relation on quotient vertices, and :func:`verify_lemma39` checks the
child-preservation property exhaustively on a concrete tree — the E13/E14
experiments' structural backbone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.ioa.composition import Composition
from repro.system.channel import ChannelAutomaton
from repro.system.process import ProcessAutomaton
from repro.tree.tagged_tree import TaggedTreeGraph, TreeVertex


def _is_prefix(shorter: tuple, longer: tuple) -> bool:
    return shorter == longer[: len(shorter)]


class SimilarityChecker:
    """Evaluates ``N ~_i N'`` over a tagged tree's quotient vertices.

    Parameters
    ----------
    graph:
        The tagged tree.
    processes:
        The process automata of the system (crash status is read off
        their ``(failed, core)`` states).
    channels:
        The channel automata.
    environment:
        The environment automaton — a composition of per-location
        automata carrying a ``location`` attribute (e.g.
        :class:`~repro.system.environment.ConsensusEnvironment`) — or
        ``None`` if the system has no environment.
    """

    def __init__(
        self,
        graph: TaggedTreeGraph,
        processes: Sequence[ProcessAutomaton],
        channels: Sequence[ChannelAutomaton],
        environment: Optional[Composition] = None,
    ):
        self.graph = graph
        self.composition: Composition = graph.composition
        self.processes = list(processes)
        self.channels = list(channels)
        self.environment = environment

    # -- State accessors ---------------------------------------------------

    def _process_state(self, vertex: TreeVertex, process):
        return self.composition.component_state(vertex.config, process)

    def crashed_at(self, vertex: TreeVertex, location: int) -> bool:
        for process in self.processes:
            if process.location == location:
                failed, _core = self._process_state(vertex, process)
                return failed
        raise KeyError(f"no process at location {location}")

    # -- The relation -----------------------------------------------------------

    def similar_modulo(
        self, i: int, v1: TreeVertex, v2: TreeVertex
    ) -> bool:
        """Whether ``v1 ~_i v2`` (note: not symmetric — condition 4)."""
        # 1. crash_i occurred in both.
        if not (self.crashed_at(v1, i) and self.crashed_at(v2, i)):
            return False
        # 2. process states agree away from i.
        for process in self.processes:
            if process.location == i:
                continue
            if self._process_state(v1, process) != self._process_state(
                v2, process
            ):
                return False
        # 3 & 4. channel states.
        for channel in self.channels:
            q1 = self.composition.component_state(v1.config, channel)
            q2 = self.composition.component_state(v2.config, channel)
            if channel.source == i:
                if not _is_prefix(tuple(q1), tuple(q2)):
                    return False
            elif channel.destination == i:
                continue  # unconstrained: only crashed i could read it
            elif q1 != q2:
                return False
        # 5. environment states away from i.
        if self.environment is not None:
            env_state1 = self.composition.component_state(
                v1.config, self.environment
            )
            env_state2 = self.composition.component_state(
                v2.config, self.environment
            )
            for part in self.environment.components:
                if getattr(part, "location", None) == i:
                    continue
                if self.environment.component_state(
                    env_state1, part
                ) != self.environment.component_state(env_state2, part):
                    return False
        # 6. FD tags.
        return v1.fd_index == v2.fd_index


@dataclass
class Lemma39Report:
    """Outcome of exhaustively checking Lemma 39 on sampled pairs."""

    pairs_checked: int
    child_checks: int
    violations: List[Tuple[TreeVertex, TreeVertex, str]]

    @property
    def holds(self) -> bool:
        return self.pairs_checked > 0 and not self.violations


def verify_lemma39(
    checker: SimilarityChecker,
    i: int,
    max_pairs: int = 2000,
) -> Lemma39Report:
    """Check Lemma 39 on a concrete tree: for every sampled pair
    ``N ~_i N'`` and every label l, either ``N^l ~_i N'`` (bottom edge) or
    ``N^l ~_i N'^l``.
    """
    graph = checker.graph
    vertices = [
        v for v in graph.vertices() if checker.crashed_at(v, i)
    ]
    violations: List[Tuple[TreeVertex, TreeVertex, str]] = []
    pairs = 0
    child_checks = 0
    for v1 in vertices:
        for v2 in vertices:
            if pairs >= max_pairs:
                return Lemma39Report(pairs, child_checks, violations)
            if not checker.similar_modulo(i, v1, v2):
                continue
            pairs += 1
            for label in graph.labels:
                _a1, c1 = graph.child(v1, label)
                _a2, c2 = graph.child(v2, label)
                child_checks += 1
                if not (
                    checker.similar_modulo(i, c1, v2)
                    or checker.similar_modulo(i, c1, c2)
                ):
                    violations.append((v1, v2, label))
    return Lemma39Report(pairs, child_checks, violations)

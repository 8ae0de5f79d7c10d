"""Tests for valence (Section 9.5)."""

from repro.tree.tagged_tree import TaggedTreeGraph
from repro.tree.valence import (
    Valence,
    ValenceAnalysis,
    decision_extractor_for_processes,
)
from repro.algorithms.consensus_tree import TreeConsensusProcess
from tests.tree.conftest import build_tree_system, one_crash_td


class TestValenceDataclass:
    def test_bivalent(self):
        v = Valence(frozenset({0, 1}))
        assert v.bivalent and not v.univalent
        assert v.value is None
        assert v.describe() == "bivalent"

    def test_univalent(self):
        v = Valence(frozenset({1}))
        assert v.univalent
        assert v.value == 1
        assert v.describe() == "1-valent"

    def test_undetermined(self):
        v = Valence(frozenset())
        assert v.undetermined
        assert v.describe() == "undetermined"


class TestRootBivalence:
    def test_proposition_51(self, tree_setup):
        """The root is bivalent: all-0 proposals reach a 0 decision,
        all-1 proposals reach a 1 decision."""
        *_rest, valence = tree_setup
        assert valence.root_valence().bivalent

    def test_no_undetermined_vertices(self, tree_setup):
        """Every vertex reaches a decision: t_D is long enough, so the
        analysis is complete (Proposition 48's finite counterpart)."""
        *_rest, valence = tree_setup
        assert not valence.undetermined_vertices()

    def test_counts_sum_to_vertices(self, tree_setup):
        *_rest, graph, valence = tree_setup
        counts = valence.counts()
        assert sum(counts.values()) == graph.num_vertices


class TestValencePropagation:
    def test_lemma_52_univalence_is_sticky(self, tree_setup):
        """Descendants of a v-valent vertex are v-valent."""
        *_rest, graph, valence = tree_setup
        checked = 0
        for vertex in valence.univalent_vertices():
            v = valence.valence(vertex).value
            for successor in graph.successors(vertex):
                succ = valence.valence(successor)
                assert succ.univalent and succ.value == v
                checked += 1
        assert checked > 0

    def test_bivalent_vertices_have_no_decision(self, tree_setup):
        """Proposition 50: a bivalent vertex's execution has no decision
        value (no process has decided in its configuration)."""
        algorithm, composition, graph, valence = tree_setup
        extractor = decision_extractor_for_processes(
            composition,
            algorithm.automata(),
            TreeConsensusProcess.decision,
        )
        for vertex in valence.bivalent_vertices():
            assert extractor(vertex.config) == []

    def test_proposals_drive_valence(self, tree_setup):
        """After both locations propose 1, the vertex is 1-valent."""
        *_rest, graph, valence = tree_setup
        vertex, _ = graph.walk(["envC:env[0]:env1", "envC:env[1]:env1"])
        v = valence.valence(vertex)
        assert v.univalent and v.value == 1

    def test_opposite_proposals_univalent_when_crash_free(self, tree_setup):
        """In a crash-free t_D the perfect detector never suspects, so
        the round-1 coordinator's value always prevails: split proposals
        yield a 0-valent vertex (coordinator 0 proposed 0)."""
        *_rest, graph, valence = tree_setup
        vertex, _ = graph.walk(["envC:env[0]:env0", "envC:env[1]:env1"])
        v = valence.valence(vertex)
        assert v.univalent and v.value == 0

    def test_opposite_proposals_bivalent_when_coordinator_may_crash(self):
        """With crash_0 in t_D, the decision hinges on whether process
        0's round-1 estimate escapes before the crash edge is consumed:
        the split-proposal vertex is genuinely bivalent (the FLP-style
        schedule dependence that hooks formalize)."""
        algorithm, composition = build_tree_system()
        graph = TaggedTreeGraph(
            composition, one_crash_td(victim=0), max_vertices=300_000
        )
        valence = ValenceAnalysis(
            graph,
            decision_extractor_for_processes(
                composition,
                algorithm.automata(),
                TreeConsensusProcess.decision,
            ),
        )
        vertex, _ = graph.walk(["envC:env[0]:env0", "envC:env[1]:env1"])
        assert valence.valence(vertex).bivalent


class TestValenceWithCrashes:
    def test_crash_in_td_analysis_completes(self):
        algorithm, composition = build_tree_system()
        graph = TaggedTreeGraph(
            composition, one_crash_td(victim=1), max_vertices=100_000
        )
        valence = ValenceAnalysis(
            graph,
            decision_extractor_for_processes(
                composition,
                algorithm.automata(),
                TreeConsensusProcess.decision,
            ),
        )
        assert valence.root_valence().bivalent
        assert not valence.undetermined_vertices()

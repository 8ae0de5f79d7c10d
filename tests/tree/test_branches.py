"""Tests for fair branches (Lemma 36, Proposition 48)."""

from repro.system.fault_pattern import is_crash
from repro.tree.branches import (
    branch_is_settled,
    fair_branch_execution,
    round_robin_labels,
)


class TestRoundRobinLabels:
    def test_every_label_per_cycle(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        labels = round_robin_labels(graph, 3)
        for label in graph.labels:
            assert labels.count(label) == 3


class TestLemma36:
    def test_fair_branch_consumes_td(self, tree_setup):
        """exe(b)|_{I-hat ∪ O_D} = t_D on the stabilized fair branch."""
        *_rest, graph, _valence = tree_setup
        execution, vertex, _cycles = fair_branch_execution(graph)
        consumed = [
            a
            for a in execution.actions
            if is_crash(a) or a.name.startswith("fd-")
        ]
        assert tuple(consumed) == graph.fd_sequence
        assert vertex.fd_index == len(graph.fd_sequence)

    def test_fair_branch_is_an_execution(self, tree_setup):
        _alg, composition, graph, _valence = tree_setup
        execution, _vertex, _cycles = fair_branch_execution(graph)
        assert execution.is_execution_of(composition)

    def test_branch_settles(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        _execution, vertex, cycles = fair_branch_execution(graph)
        assert branch_is_settled(graph, vertex)
        assert cycles < 200  # stabilized well before the bound

    def test_settled_vertex_only_bottom_edges(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        _execution, vertex, _cycles = fair_branch_execution(graph)
        for label in graph.labels:
            action, target = graph.child(vertex, label)
            assert action is None
            assert target == vertex


class TestProposition48:
    def test_exactly_one_decision_value(self, tree_setup):
        """Each fair branch of the consensus system decides exactly one
        value."""
        *_rest, graph, _valence = tree_setup
        execution, _vertex, _cycles = fair_branch_execution(graph)
        decisions = {
            a.payload[0]
            for a in execution.actions
            if a.name == "decide"
        }
        assert len(decisions) == 1

    def test_fair_branch_valence_matches_decision(self, tree_setup):
        """The settled vertex is univalent on the branch's decision."""
        *_rest, graph, valence = tree_setup
        execution, vertex, _cycles = fair_branch_execution(graph)
        decision = next(
            a.payload[0]
            for a in execution.actions
            if a.name == "decide"
        )
        v = valence.valence(vertex)
        assert v.univalent and v.value == decision

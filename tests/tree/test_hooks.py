"""Tests for hooks and critical locations (Section 9.6, Theorem 59)."""

import pytest

from repro.algorithms.consensus_tree import TreeConsensusProcess
from repro.tree.hooks import HookSearch, find_hooks
from repro.tree.tagged_tree import TaggedTreeGraph
from repro.tree.valence import (
    ValenceAnalysis,
    decision_extractor_for_processes,
)
from tests.tree.conftest import (
    LOCS,
    build_tree_system,
    one_crash_td,
)


def analyze(td):
    algorithm, composition = build_tree_system()
    graph = TaggedTreeGraph(composition, td, max_vertices=200_000)
    valence = ValenceAnalysis(
        graph,
        decision_extractor_for_processes(
            composition, algorithm.automata(), TreeConsensusProcess.decision
        ),
    )
    return graph, valence


class TestHookExistence:
    """Lemma 55: R^{t_D} contains a hook."""

    def test_hooks_exist_crash_free(self, tree_setup):
        *_rest, graph, valence = tree_setup
        hooks = find_hooks(graph, valence, max_hooks=5)
        assert hooks

    def test_hooks_exist_with_crash(self):
        graph, valence = analyze(one_crash_td(victim=1))
        assert find_hooks(graph, valence, max_hooks=5)

    def test_hook_definition_satisfied(self, tree_setup):
        *_rest, graph, valence = tree_setup
        for hook in find_hooks(graph, valence, max_hooks=10):
            assert valence.valence(hook.node).bivalent
            assert hook.l_child_valence.univalent
            assert hook.rl_child_valence.univalent
            assert (
                hook.l_child_valence.value
                == 1 - hook.rl_child_valence.value
            )

    def test_max_hooks_respected(self, tree_setup):
        *_rest, graph, valence = tree_setup
        assert len(find_hooks(graph, valence, max_hooks=3)) == 3


class TestTheorem59Properties:
    def test_lemma_56_nonbottom_tags(self, tree_setup):
        *_rest, graph, valence = tree_setup
        for hook in find_hooks(graph, valence, max_hooks=25):
            assert hook.satisfies_lemma56()

    def test_lemma_57_same_location(self, tree_setup):
        *_rest, graph, valence = tree_setup
        for hook in find_hooks(graph, valence, max_hooks=25):
            assert hook.satisfies_lemma57()
            assert hook.critical_location is not None

    def test_lemma_58_critical_location_live_crash_free(self, tree_setup):
        *_rest, graph, valence = tree_setup
        report = HookSearch(graph, valence, LOCS).report(max_hooks=25)
        assert report.theorem59_holds
        assert report.critical_locations <= set(LOCS)

    @pytest.mark.parametrize("victim", [0, 1])
    def test_lemma_58_with_crash_in_td(self, victim):
        """The faulty location can never be critical: crash it in t_D and
        every hook's critical location is the other one."""
        graph, valence = analyze(one_crash_td(victim=victim))
        report = HookSearch(graph, valence, LOCS).report()
        assert report.num_hooks > 0
        assert report.theorem59_holds
        live = {i for i in LOCS if i != victim}
        assert report.critical_locations <= live

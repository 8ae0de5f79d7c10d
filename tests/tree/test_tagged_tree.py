"""Tests for the tagged tree R^{t_D} (Section 8.2–8.3)."""

import pytest

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import Composition
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.prof import cache_stats_delta, cache_stats_snapshot
from repro.tree.labels import FD_LABEL, tree_labels
from repro.tree.tagged_tree import TaggedTreeGraph
from tests.tree.conftest import (
    build_tree_system,
    crash_free_td,
    one_crash_td,
)


class TestConstruction:
    def test_labels_are_fd_plus_tasks(self, tree_setup):
        _alg, composition, graph, _valence = tree_setup
        labels = tree_labels(composition)
        assert labels[0] == FD_LABEL
        assert set(labels[1:]) == set(composition.tasks())
        assert graph.labels == labels

    def test_root_tags(self, tree_setup):
        _alg, composition, graph, _valence = tree_setup
        assert graph.root.config == composition.initial_state()
        assert graph.root.fd_index == 0
        assert graph.fd_suffix(graph.root) == graph.fd_sequence

    def test_finite_quotient(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        assert 0 < graph.num_vertices < 50_000

    def test_vertex_bound_enforced(self):
        _algorithm, composition = build_tree_system()
        with pytest.raises(RuntimeError, match="exceeded"):
            TaggedTreeGraph(composition, crash_free_td(), max_vertices=10)

    def test_task_determinism_violation_message(self):
        # One task covering two always-enabled outputs: the canonical
        # task-determinism violation, reported with the snapshot's tuple.
        a0, a1 = Action("out0", 0), Action("out1", 0)
        automaton = FunctionalAutomaton(
            name="ambiguous",
            signature=Signature(outputs=FiniteActionSet([a0, a1])),
            initial=0,
            transition=lambda s, a: s,
            enabled_fn=lambda s: (a0, a1),
            task_names=("t",),
            task_assignment=lambda a: "t",
        )
        composition = Composition([automaton], name="wrapper")
        with pytest.raises(RuntimeError) as exc:
            TaggedTreeGraph(composition, [a0], max_vertices=5_000)
        assert str(exc.value) == (
            "task ambiguous:t is not task-deterministic in some reachable "
            f"state (enabled: {(a0, a1)}); the tagged tree requires a "
            "task-deterministic system"
        )


@pytest.mark.parametrize(
    "td_factory, applies, snapshots, vertices, task_edges",
    [
        (crash_free_td, 324, 77, (2172, 1240), (1168, 73)),
        (one_crash_td, 978, 299, (1276, 1125), (831, 295)),
    ],
    ids=["crash-free", "one-crash"],
)
def test_build_work_counts(
    monkeypatch, td_factory, applies, snapshots, vertices, task_edges
):
    """Exact work of one build.  A config is applied at most once per
    distinct t_D event and once per enabled task, and snapshotted once
    (the counts also take in the calls of the environment, itself a
    ``Composition``); the (hits, misses) tallies of the vertex probes
    and the task-edge memo count the quotient's revisits."""
    calls = {"apply": 0, "enabled_by_task": 0}
    for name in calls:
        original = getattr(Composition, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Composition, name, counted)
    _algorithm, composition = build_tree_system()
    base = cache_stats_snapshot()
    TaggedTreeGraph(composition, td_factory(), max_vertices=50_000)
    delta = cache_stats_delta(base)
    assert calls == {"apply": applies, "enabled_by_task": snapshots}
    assert (
        delta["tree.vertices"]["hits"],
        delta["tree.vertices"]["misses"],
    ) == vertices
    assert (
        delta["tree.task-edges"]["hits"],
        delta["tree.task-edges"]["misses"],
    ) == task_edges


class TestEdges:
    def test_fd_edge_consumes_sequence(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        action, child = graph.child(graph.root, FD_LABEL)
        assert action == graph.fd_sequence[0]
        assert child.fd_index == 1

    def test_fd_edge_bottom_when_exhausted(self):
        _algorithm, composition = build_tree_system()
        graph = TaggedTreeGraph(composition, [], max_vertices=50_000)
        action, child = graph.child(graph.root, FD_LABEL)
        assert action is None
        assert child == graph.root  # Proposition 30: same tags

    def test_disabled_task_edge_is_bottom(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        # No messages in transit initially: channel tasks are disabled.
        action, child = graph.child(graph.root, "chan[0->1]:main")
        assert action is None
        assert child == graph.root

    def test_env_edges_enabled_at_root(self, tree_setup):
        _alg, _comp, graph, _valence = tree_setup
        action, child = graph.child(graph.root, "envC:env[0]:env1")
        assert action is not None
        assert action.name == "propose"
        assert action.payload == (1,)
        assert child != graph.root

    def test_walk_matches_edges(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        vertex, actions = graph.walk([FD_LABEL, FD_LABEL, "envC:env[0]:env0"])
        assert vertex.fd_index == 2
        assert actions[2].name == "propose"

    def test_successors_exclude_bottom(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        for successor in graph.successors(graph.root):
            assert successor in graph.edges


class TestLemma33:
    """Equal tags => equal child tags (the quotient is well defined)."""

    def test_quotient_consistency(self, tree_setup):
        *_rest, graph, _valence = tree_setup
        # Reaching the same vertex along different walks yields the same
        # outgoing edges (they are stored once per vertex by construction;
        # verify a concrete diamond: env0 then FD vs FD then env0).
        v1, _ = graph.walk(["envC:env[0]:env0", FD_LABEL])
        v2, _ = graph.walk([FD_LABEL, "envC:env[0]:env0"])
        assert v1 == v2
        assert graph.edges[v1] == graph.edges[v2]


class TestTheorem41:
    """Trees of FD sequences sharing a prefix agree up to that depth."""

    def test_bounded_views_agree(self):
        _algorithm, composition = build_tree_system()
        t1 = crash_free_td(rounds=6)
        t2 = list(t1[:2]) + one_crash_td(victim=1, pre_rounds=0)
        g1 = TaggedTreeGraph(composition, t1, max_vertices=100_000)
        g2 = TaggedTreeGraph(composition, t2, max_vertices=100_000)
        # Common prefix has length 2: views at depth 2 must be equal.
        assert g1.bounded_view(2) == g2.bounded_view(2)

    def test_views_diverge_after_prefix(self):
        _algorithm, composition = build_tree_system()
        t1 = crash_free_td(rounds=6)
        t2 = list(t1[:2]) + one_crash_td(victim=1, pre_rounds=0)
        g1 = TaggedTreeGraph(composition, t1, max_vertices=100_000)
        g2 = TaggedTreeGraph(composition, t2, max_vertices=100_000)
        assert g1.bounded_view(3) != g2.bounded_view(3)

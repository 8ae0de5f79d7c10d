"""The tagged-tree build against a reference BFS with no memo at all.

``TaggedTreeGraph`` interns configurations, memoizes FD transitions by
(config, t_D event) and task edges by config, and probes vertices by a
packed int.  The reference below re-applies every edge at every vertex
and keys vertices by their ``(config, fd_index)`` value.  For P-style
t_D sequences over the two-location tree system (0-12 events, at most
one crash) both must discover the same vertices in the same order and
the same labelled edges, so a memo keyed too coarsely (on the config
alone, on the t_D position in place of the event) or a vertex key that
drops the FD index shows up as a differing graph.
"""

from hypothesis import given, settings, strategies as st

from repro.detectors.perfect import perfect_output
from repro.system.fault_pattern import crash_action
from repro.tree.labels import FD_LABEL, tree_labels
from repro.tree.tagged_tree import TaggedTreeGraph
from tests.tree.conftest import LOCS, build_tree_system


@st.composite
def p_sequences(draw):
    """A t_D over LOCS: up to 12 events, at most one crash; afterwards
    the survivors' outputs suspect the victim, and the victim is
    silent."""
    length = draw(st.integers(0, 12))
    crash_at = (
        draw(st.one_of(st.none(), st.integers(0, length - 1)))
        if length
        else None
    )
    victim = draw(st.sampled_from(LOCS))
    td = []
    for k in range(length):
        if k == crash_at:
            td.append(crash_action(victim))
        elif crash_at is not None and k > crash_at:
            live = [i for i in LOCS if i != victim]
            td.append(perfect_output(draw(st.sampled_from(live)), (victim,)))
        else:
            td.append(perfect_output(draw(st.sampled_from(LOCS)), ()))
    return td


def reference_build(composition, td):
    """Breadth-first R^{t_D} quotient, FD edge first, then task labels
    in order: vertices as (config, fd_index) and, per vertex, its edges
    as (label, action tag, target index)."""
    labels = tree_labels(composition)
    order = [(composition.initial_state(), 0)]
    index = {order[0]: 0}
    edges = []
    for config, fd_index in order:  # grows while it is walked
        out = []
        for label in labels:
            if label == FD_LABEL:
                if fd_index < len(td):
                    action = td[fd_index]
                    target = (composition.apply(config, action), fd_index + 1)
                else:
                    action, target = None, (config, fd_index)
            else:
                enabled = composition.enabled_by_task(config).get(label, ())
                assert len(enabled) <= 1
                if enabled:
                    action = enabled[0]
                    target = (composition.apply(config, action), fd_index)
                else:
                    action, target = None, (config, fd_index)
            if target not in index:
                index[target] = len(order)
                order.append(target)
            out.append((label, action, index[target]))
        edges.append(out)
    return order, edges


@settings(max_examples=30, deadline=None)
@given(td=p_sequences())
def test_build_matches_reference_bfs(td):
    _algorithm, composition = build_tree_system()
    graph = TaggedTreeGraph(composition, td, max_vertices=50_000)
    order, edges = reference_build(composition, td)

    vertices = list(graph.vertices())
    assert [v.index for v in vertices] == list(range(len(vertices)))
    assert [(v.config, v.fd_index) for v in vertices] == order
    assert [
        [
            (label, action, target.index)
            for label, (action, target) in graph.edges[v].items()
        ]
        for v in vertices
    ] == edges

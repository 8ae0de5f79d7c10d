"""Fair branches of the tagged tree (Section 8.3, Lemma 36).

A branch is fair when every label occurs infinitely often along it; the
round-robin branch (cycling over the label set forever) is the canonical
example.  Lemma 36: for every fair branch b, exe(b) is a fair execution
of the system with ``exe(b)|_{I-hat ∪ O_D} = t_D``; Proposition 48 then
gives exactly one decision value on each fair branch of a consensus
system.

With a finite t_D and a quiescent algorithm, a sufficiently long
round-robin prefix realizes the limit: t_D is fully consumed, the system
reaches quiescence, and extending the branch further adds only bottom
edges.  :func:`fair_branch_execution` builds that prefix.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ioa.executions import Execution
from repro.tree.tagged_tree import TaggedTreeGraph, TreeVertex


def round_robin_labels(
    graph: TaggedTreeGraph, num_cycles: int
) -> List[str]:
    """``num_cycles`` full passes over the label set — a fair-branch
    prefix in which every label occurred ``num_cycles`` times."""
    return list(graph.labels) * num_cycles


def fair_branch_execution(
    graph: TaggedTreeGraph,
    max_cycles: int = 200,
) -> Tuple[Execution, TreeVertex, int]:
    """exe(b) for the round-robin fair branch, truncated at stabilization.

    Follows the round-robin branch cycle by cycle until one entire cycle
    adds no events (every edge was bottom: t_D exhausted and the system
    quiescent), or ``max_cycles`` passes.  Returns the execution, the
    final vertex, and the number of cycles taken.
    """
    states = [graph.root.config]
    actions = []
    vertex = graph.root
    cycles = 0
    for _cycle in range(max_cycles):
        cycles += 1
        progressed = False
        for label in graph.labels:
            action, vertex = graph.child(vertex, label)
            if action is not None:
                actions.append(action)
                states.append(vertex.config)
                progressed = True
        if not progressed:
            break
    return Execution(states, actions), vertex, cycles


def branch_is_settled(graph: TaggedTreeGraph, vertex: TreeVertex) -> bool:
    """Whether the branch has stabilized at ``vertex``: t_D is exhausted
    and no task edge is enabled (all outgoing edges are bottom)."""
    if vertex.fd_index != len(graph.fd_sequence):
        return False
    return all(
        action is None
        for (action, _target) in graph.edges[vertex].values()
    )

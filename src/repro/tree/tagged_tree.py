"""The tagged tree R^{t_D} (Section 8.2) as a finite quotient graph.

Each node N of R^{t_D} carries a config tag c_N (a system state) and an
FD-sequence tag t_N (the unconsumed suffix of t_D); each edge carries an
action tag (an action or the bottom placeholder).  Lemma 33 shows that two
nodes with equal tags have tag-isomorphic subtrees, so all analyses
(valence, hooks) factor through the quotient whose vertices are

    (configuration, number of t_D events consumed).

:class:`TaggedTreeGraph` materializes the reachable quotient breadth-first
up to a vertex bound.  ⊥-tagged edges are self-loops in the quotient
(config and FD tag unchanged, Proposition 30) and are recorded as such.

The system composition must contain the distributed algorithm, channels
and environment, but *neither* a failure-detector automaton *nor* the
crash automaton: both crash events and detector outputs are supplied by
t_D through the FD edges, exactly as in Section 8.2 (t_D ranges over
I-hat ∪ O_D).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.composition import Composition
from repro.obs.prof import cache_counter
from repro.tree.labels import FD_LABEL, tree_labels


class TreeVertex:
    """A quotient vertex: config tag plus consumed-prefix length of t_D.

    Vertices are the keys of every tree/valence/hook dictionary, so the
    hash of the (deeply nested) config tuple is computed once at
    construction and cached — re-hashing it on every lookup dominated
    tree-analysis profiles.  Instances are immutable value objects:
    equality is by ``(config, fd_index)``.

    A graph build *interns* its vertices: exactly one instance exists
    per distinct vertex of a built graph, carrying its breadth-first
    discovery ``index`` (dense, root = 0).  Downstream analyses use the
    index to run over flat arrays instead of vertex-keyed dicts.
    Hand-constructed vertices (equal by value, ``index`` = -1) remain
    valid dictionary probes.
    """

    __slots__ = ("config", "fd_index", "index", "_hash")

    def __init__(self, config: State, fd_index: int):
        self.config = config
        self.fd_index = fd_index
        #: Dense discovery index within the graph that interned this
        #: vertex; -1 until interned.
        self.index = -1
        self._hash = hash((config, fd_index))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TreeVertex):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.fd_index == other.fd_index
            and self.config == other.config
        )

    def __repr__(self) -> str:
        return f"TreeVertex(fd_index={self.fd_index})"


@dataclass(frozen=True)
class TreeEdge:
    """One labeled edge of the tagged tree (quotiented).

    ``action`` is the action tag (None encodes the bottom placeholder, in
    which case ``target`` equals the source vertex)."""

    source: TreeVertex
    label: str
    action: Optional[Action]
    target: TreeVertex


class TaggedTreeGraph:
    """The reachable quotient of R^{t_D}, built breadth-first.

    Parameters
    ----------
    composition:
        The system S (algorithm + channels + environment).
    fd_sequence:
        The fixed t_D over I-hat ∪ O_D.
    max_vertices:
        Exploration bound; exceeding it raises ``RuntimeError`` (choose a
        quiescent algorithm or a shorter t_D).
    compiled:
        Accepted and ignored: there is one build, which interns
        configurations itself.  The keyword stays while the compiled
        engine does, because the repo benchmark's tree workload
        (``benchmarks/perf/perfbench/workloads.py``), which picks an
        engine per run, still passes it.
    """

    def __init__(
        self,
        composition: Composition,
        fd_sequence: Sequence[Action],
        max_vertices: int = 200_000,
        compiled: Optional[bool] = None,
    ):
        self.composition = composition
        self.fd_sequence: Tuple[Action, ...] = tuple(fd_sequence)
        self.labels: List[str] = tree_labels(composition)
        self.max_vertices = max_vertices
        #: the root vertex: the initial configuration at FD index 0
        #: (admitted first by the build)
        self.root: TreeVertex
        #: vertex -> {label: (action tag, successor vertex)}, in
        #: discovery order (``vertex.index`` is the position)
        self.edges: Dict[
            TreeVertex, Dict[str, Tuple[Optional[Action], TreeVertex]]
        ] = {}
        self._build()

    # -- Construction --------------------------------------------------------

    def _build(self) -> None:
        """Breadth-first discovery of the quotient: the FD edge first,
        then the task labels in ``self.labels`` order.

        Every configuration an apply produces is interned to a dense id
        (one nested hash per apply); the memos and vertex probes after
        that key on ints.  An FD edge is memoized by (config id, t_D
        event), with events interned by value, so an event t_D repeats
        (P's ``perfect_output(i, ())`` every round) applies once per
        config, not once per vertex.  A config's task edges do not
        depend on the FD index, so they are computed once and shared by
        every vertex carrying that config.  Both memos rest on apply
        purity and Lemma 33.  A vertex is probed by one packed int,
        ``cid * (len(t_D) + 1) + fd_index``.
        """
        composition = self.composition
        apply = composition.apply
        fd_sequence = self.fd_sequence
        fd_len = len(fd_sequence)
        stride = fd_len + 1
        event_ids: Dict[Action, int] = {}
        fd_aids = [event_ids.setdefault(a, len(event_ids)) for a in fd_sequence]
        n_events = len(event_ids)
        task_labels = [label for label in self.labels if label != FD_LABEL]
        configs: List[State] = []
        cid_of: Dict[State, int] = {}
        #: cid * n_events + event id -> successor cid
        fd_memo: Dict[int, int] = {}
        #: cid -> [(task label, action tag, successor cid)]
        task_memo: Dict[int, List[Tuple[str, Optional[Action], int]]] = {}
        vmap: Dict[int, TreeVertex] = {}
        edges = self.edges
        frontier: deque = deque()
        # Cache telemetry (repro.obs.prof): a hit on ``tree.vertices`` is
        # a quotient-graph revisit (Lemma 33 doing its work), a miss a
        # freshly admitted vertex; ``tree.task-edges`` tallies the
        # per-config task-edge memo.
        c_vert = cache_counter("tree.vertices")
        c_task = cache_counter("tree.task-edges")
        popleft = frontier.popleft

        def intern(config: State) -> int:
            cid = cid_of.get(config)
            if cid is None:
                cid = cid_of[config] = len(configs)
                configs.append(config)
            return cid

        def admit(cid: int, fd_index: int) -> TreeVertex:
            """Register a fresh vertex, enforcing the bound.  (Its probe,
            one packed-int ``vmap`` lookup, is inlined at each edge.)"""
            if len(edges) >= self.max_vertices:
                raise RuntimeError(
                    f"tagged tree exceeded {self.max_vertices} "
                    "quotient vertices"
                )
            vertex = TreeVertex(configs[cid], fd_index)
            vertex.index = len(edges)
            edges[vertex] = {}
            vmap[cid * stride + fd_index] = vertex
            frontier.append((vertex, cid))
            return vertex

        def task_edges(cid: int) -> List[Tuple[str, Optional[Action], int]]:
            """Per task label, its action tag (None for bottom) and
            successor config id (Section 8.2)."""
            config = configs[cid]
            snapshot = composition.enabled_by_task(config)
            entries: List[Tuple[str, Optional[Action], int]] = []
            for label in task_labels:
                enabled = snapshot.get(label, ())
                if not enabled:
                    entries.append((label, None, -1))
                    continue
                if len(enabled) > 1:
                    raise RuntimeError(
                        f"task {label} is not task-deterministic in some "
                        f"reachable state (enabled: {enabled}); the tagged "
                        "tree requires a task-deterministic system"
                    )
                action = enabled[0]
                entries.append((label, action, intern(apply(config, action))))
            return entries

        self.root = admit(intern(composition.initial_state()), 0)
        while frontier:
            vertex, cid = popleft()
            fdi = vertex.fd_index
            bottom = (None, vertex)
            out: Dict[str, Tuple[Optional[Action], TreeVertex]] = {}
            if fdi < fd_len:
                action = fd_sequence[fdi]
                key = cid * n_events + fd_aids[fdi]
                nid = fd_memo.get(key)
                if nid is None:
                    nid = fd_memo[key] = intern(apply(configs[cid], action))
                known = vmap.get(nid * stride + fdi + 1)
                if known is None:
                    c_vert.misses += 1
                    known = admit(nid, fdi + 1)
                else:
                    c_vert.hits += 1
                out[FD_LABEL] = (action, known)
            else:
                out[FD_LABEL] = bottom
            entries = task_memo.get(cid)
            if entries is None:
                c_task.misses += 1
                entries = task_memo[cid] = task_edges(cid)
            else:
                c_task.hits += 1
            for label, action, nid in entries:
                if action is None:
                    out[label] = bottom
                    continue
                known = vmap.get(nid * stride + fdi)
                if known is None:
                    c_vert.misses += 1
                    known = admit(nid, fdi)
                else:
                    c_vert.hits += 1
                out[label] = (action, known)
            edges[vertex] = out

    # -- Queries --------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.edges)

    def vertices(self) -> Iterator[TreeVertex]:
        return iter(self.edges)

    def out_edges(self, vertex: TreeVertex) -> Iterator[TreeEdge]:
        for label, (action, target) in self.edges[vertex].items():
            yield TreeEdge(vertex, label, action, target)

    def child(
        self, vertex: TreeVertex, label: str
    ) -> Tuple[Optional[Action], TreeVertex]:
        """The l-child of a vertex, with the edge's action tag."""
        return self.edges[vertex][label]

    def successors(self, vertex: TreeVertex) -> List[TreeVertex]:
        """Distinct successors along non-bottom edges."""
        seen: Dict[TreeVertex, None] = {}
        for _label, (action, target) in self.edges[vertex].items():
            if action is not None and target not in seen:
                seen[target] = None
        return list(seen)

    def fd_suffix(self, vertex: TreeVertex) -> Tuple[Action, ...]:
        """The FD-sequence tag t_N of the vertex."""
        return self.fd_sequence[vertex.fd_index :]

    def walk(
        self, path: Sequence[str]
    ) -> Tuple[TreeVertex, List[Optional[Action]]]:
        """Follow labels from the root; return the final vertex and the
        action tags encountered (the exe(N) events, with bottoms)."""
        vertex = self.root
        actions: List[Optional[Action]] = []
        for label in path:
            action, vertex = self.child(vertex, label)
            actions.append(action)
        return vertex, actions

    def execution_for_walk(self, path: Sequence[str]):
        """The execution exe(N) of the node reached by ``path``
        (Section 8.3): alternating config tags and the *non-bottom*
        action tags along the walk, ending in the node's config tag.

        Proposition 29 states exe(N) is an execution of the system with
        ``exe(N)|_{I-hat ∪ O_D} · t_N = t_D``; the returned
        :class:`~repro.ioa.executions.Execution` lets tests verify both
        halves directly.
        """
        from repro.ioa.executions import Execution

        states = [self.root.config]
        actions: List[Action] = []
        vertex = self.root
        for label in path:
            action, vertex = self.child(vertex, label)
            if action is not None:  # bottom edges add nothing (Prop. 30)
                actions.append(action)
                states.append(vertex.config)
        return Execution(states, actions), vertex

    # -- Theorem 41 support -------------------------------------------------------

    def bounded_view(self, depth: int) -> Dict[Tuple[str, ...], Optional[Action]]:
        """The action tags of the depth-bounded tree R^{t_D}_x, as a map
        from label paths to the action tag of the path's final edge.

        Two FD sequences sharing a length-x prefix yield equal bounded
        views at depth x (Theorem 41); the E12 experiment compares these
        maps directly."""
        view: Dict[Tuple[str, ...], Optional[Action]] = {}

        def recurse(vertex: TreeVertex, path: Tuple[str, ...]) -> None:
            if len(path) >= depth:
                return
            for label in self.labels:
                action, target = self.child(vertex, label)
                new_path = path + (label,)
                view[new_path] = action
                recurse(target, new_path)

        recurse(self.root, ())
        return view

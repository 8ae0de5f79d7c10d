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
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.ioa.actions import Action
from repro.ioa.automaton import State
from repro.ioa.composition import Composition
from repro.obs.prof import cache_counter, cache_stats_delta, cache_stats_snapshot
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
    instrument:
        Anything :func:`repro.obs.instrument.coerce_instrument` accepts
        (typically a :class:`repro.obs.metrics.MetricsRegistry`); the
        build records ``tree.vertices`` / ``tree.edges`` counters
        (cumulative over builds) and a ``tree.build_s`` wall-time
        histogram into the metrics half.
    compiled:
        ``True`` builds the quotient over the compiled core
        (:mod:`repro.compiled`): configurations become interned ids, the
        FD/task applies go through the int-keyed transition table (so
        the t_D actions' repeated applies are memoized across FD
        indices), and vertex probes hash int pairs instead of nested
        config tuples.  Discovery order, counters and error messages are
        identical to the interpreted build — the graphs are equal edge
        for edge.  ``False`` forces the interpreted build; ``None``
        (default) defers to the process default.
    """

    def __init__(
        self,
        composition: Composition,
        fd_sequence: Sequence[Action],
        max_vertices: int = 200_000,
        instrument=None,
        compiled: Optional[bool] = None,
    ):
        from repro.compiled.config import resolve_compiled
        from repro.obs.instrument import coerce_instrument

        self.composition = composition
        self.fd_sequence: Tuple[Action, ...] = tuple(fd_sequence)
        self.labels: List[str] = tree_labels(composition)
        self.max_vertices = max_vertices
        self.compiled = resolve_compiled(compiled)
        self.metrics = metrics = coerce_instrument(instrument).metrics
        self.root = TreeVertex(composition.initial_state(), 0)
        self.root.index = 0
        #: vertex -> {label: (action tag, successor vertex)}
        self.edges: Dict[
            TreeVertex, Dict[str, Tuple[Optional[Action], TreeVertex]]
        ] = {}
        #: canonical vertices in discovery order (``vertex.index`` keys it)
        self._vertices: List[TreeVertex] = []
        #: config -> [(task label, action tag, successor config)]
        self._task_edge_memo: Dict[
            State, List[Tuple[str, Optional[Action], Optional[State]]]
        ] = {}
        # Cache telemetry (repro.obs.prof): the task-edge memo and vertex
        # interning tally into the process-global counters; a hit on
        # ``tree.vertices`` is a quotient-graph revisit (Lemma 33 doing
        # its work), a miss is a freshly interned vertex.
        self._c_task_edges = cache_counter("tree.task-edges")
        self._c_vertices = cache_counter("tree.vertices")
        build = self._build_compiled if self.compiled else self._build
        if metrics is not None:
            cache_base = cache_stats_snapshot()
            with metrics.timer("tree.build_s"):
                build()
            metrics.counter("tree.vertices").inc(len(self.edges))
            metrics.counter("tree.edges").inc(
                sum(len(out) for out in self.edges.values())
            )
            for name, stats in cache_stats_delta(cache_base).items():
                for kind in ("hits", "misses", "evictions"):
                    if stats[kind]:
                        metrics.counter(f"cache.{name}.{kind}").inc(
                            stats[kind]
                        )
        else:
            build()

    def attach_metrics(self, registry) -> "TaggedTreeGraph":
        """Record subsequent tree operations into ``registry``; returns
        self.  (The build itself is timed only when the registry is
        passed at construction via ``instrument=``.)"""
        self.metrics = registry
        return self

    # -- Construction --------------------------------------------------------

    def _task_edges(
        self, config: State
    ) -> List[Tuple[str, Optional[Action], Optional[State]]]:
        """The task-labeled edges out of a configuration (Section 8.2):
        per task label, its action tag (None for bottom) and successor
        configuration.

        Task edges are independent of the FD index, and the quotient
        typically revisits the same configuration at many FD indices
        (every ⊥-consuming FD step duplicates the config), so the result
        is memoized per config: one ``enabled_by_task`` snapshot and one
        ``apply`` per enabled task, shared across all those vertices.
        """
        entries = self._task_edge_memo.get(config)
        if entries is not None:
            self._c_task_edges.hits += 1
            return entries
        self._c_task_edges.misses += 1
        snapshot = self.composition.enabled_by_task(config)
        entries = []
        for label in self.labels:
            if label == FD_LABEL:
                continue
            enabled = snapshot.get(label, ())
            if not enabled:
                entries.append((label, None, None))
                continue
            if len(enabled) > 1:
                raise RuntimeError(
                    f"task {label} is not task-deterministic in some "
                    f"reachable state (enabled: {enabled}); the tagged "
                    "tree requires a task-deterministic system"
                )
            action = enabled[0]
            entries.append(
                (label, action, self.composition.apply(config, action))
            )
        self._task_edge_memo[config] = entries
        return entries

    def _register(self, vertex: TreeVertex) -> TreeVertex:
        """Admit a fresh canonical vertex, enforcing the bound."""
        if len(self.edges) >= self.max_vertices:
            raise RuntimeError(
                f"tagged tree exceeded {self.max_vertices} "
                "quotient vertices"
            )
        vertex.index = len(self.edges)
        self.edges[vertex] = {}
        self._vertices.append(vertex)
        return vertex

    def _build(self) -> None:
        fd_len = len(self.fd_sequence)
        frontier = deque([self.root])
        canon: Dict[TreeVertex, TreeVertex] = {self.root: self.root}
        self._register(self.root)

        def intern(target: TreeVertex) -> TreeVertex:
            """The canonical instance of a reached vertex (registering
            first sightings)."""
            known = canon.get(target)
            if known is None:
                self._c_vertices.misses += 1
                canon[target] = target
                self._register(target)
                frontier.append(target)
                return target
            self._c_vertices.hits += 1
            return known

        while frontier:
            vertex = frontier.popleft()
            out: Dict[str, Tuple[Optional[Action], TreeVertex]] = {}
            # The FD edge consumes t_D, so it depends on the full vertex.
            if vertex.fd_index < fd_len:
                action = self.fd_sequence[vertex.fd_index]
                config = self.composition.apply(vertex.config, action)
                out[FD_LABEL] = (
                    action,
                    intern(TreeVertex(config, vertex.fd_index + 1)),
                )
            else:
                out[FD_LABEL] = (None, vertex)
            # Task edges depend only on the config: shared via the memo.
            for label, action, config in self._task_edges(vertex.config):
                if action is None:
                    out[label] = (None, vertex)
                else:
                    out[label] = (
                        action,
                        intern(TreeVertex(config, vertex.fd_index)),
                    )
            self.edges[vertex] = out

    def _build_compiled(self) -> None:
        """The interpreted build, lowered over the compiled core.

        Vertices are probed as ``(config id, fd_index)`` int pairs —
        no nested-tuple hashing — and every FD/task apply goes through
        the core's int-keyed transition table, so t_D's repeated actions
        and the quotient's config revisits pay one interpreted apply
        each, total.  Discovery (BFS; FD edge first, then task labels in
        order) and the ``tree.vertices`` / ``tree.task-edges`` hit/miss
        pattern are identical to :meth:`_build`, so the resulting graph
        is equal edge for edge and counter for counter.
        """
        from repro.compiled.tables import compile_automaton

        core = compile_automaton(self.composition)
        fd_sequence = self.fd_sequence
        fd_len = len(fd_sequence)
        fd_aids = [core.intern_action(a) for a in fd_sequence]
        root_cid = core.intern_config(self.root.config)
        # Vertex probes use one packed int: fd_index ranges over
        # 0..fd_len inclusive, so ``cid * (fd_len + 1) + fd_index`` is
        # injective — a single small-int hash per probe.
        stride = fd_len + 1
        vmap: Dict[int, TreeVertex] = {root_cid * stride: self.root}
        frontier = deque([(self.root, root_cid)])
        self._register(self.root)
        #: cid -> [(task label, action tag, successor cid)]
        task_memo: Dict[
            int, List[Tuple[str, Optional[Action], Optional[int]]]
        ] = {}
        task_index = {
            label: k for k, label in enumerate(core.task_names)
        }
        task_cols = [
            (label, task_index[label])
            for label in self.labels
            if label != FD_LABEL
        ]
        # The loop below is the E12/E13 hot path: core internals and
        # counters are hoisted into locals, and the apply-memo probe is
        # inlined (same tallies as ``core.apply``).
        edges = self.edges
        canonical = self._vertices
        max_vertices = self.max_vertices
        c_vert = self._c_vertices
        c_task = self._c_task_edges
        c_apply = core._c_apply
        apply_memo = core._apply_memo
        transition = core._transition
        state_of = core.state_of
        popleft = frontier.popleft
        push = frontier.append

        def admit(cid: int, fd_index: int) -> TreeVertex:
            # The miss half of vertex interning; the hit path (a single
            # packed-int probe) is inlined at each edge below.
            c_vert.misses += 1
            vertex = TreeVertex(state_of(cid), fd_index)
            vmap[cid * stride + fd_index] = vertex
            if len(edges) >= max_vertices:
                raise RuntimeError(
                    f"tagged tree exceeded {max_vertices} "
                    "quotient vertices"
                )
            vertex.index = len(edges)
            edges[vertex] = {}
            canonical.append(vertex)
            push((vertex, cid))
            return vertex

        def task_edges(cid: int):
            c_task.misses += 1
            snapshot = core.snapshot_full(cid)
            entries = []
            for label, col in task_cols:
                aids = snapshot[col]
                if not aids:
                    entries.append((label, None, None))
                    continue
                if len(aids) > 1:
                    # Recompute through the base composition so the
                    # message matches the interpreted build's exactly
                    # (snapshot tuples, not interned-sorted ones).
                    enabled = self.composition.enabled_by_task(
                        state_of(cid)
                    ).get(label)
                    raise RuntimeError(
                        f"task {label} is not task-deterministic in some "
                        f"reachable state (enabled: {enabled}); the tagged "
                        "tree requires a task-deterministic system"
                    )
                aid = aids[0]
                akey = (cid, aid)
                nid = apply_memo.get(akey)
                if nid is None:
                    c_apply.misses += 1
                    nid = transition(cid, aid)
                    apply_memo[akey] = nid
                else:
                    c_apply.hits += 1
                entries.append((label, core.action_of(aid), nid))
            task_memo[cid] = entries
            return entries

        while frontier:
            vertex, cid = popleft()
            fdi = vertex.fd_index
            out: Dict[str, Tuple[Optional[Action], TreeVertex]] = {}
            if fdi < fd_len:
                aid = fd_aids[fdi]
                akey = (cid, aid)
                nid = apply_memo.get(akey)
                if nid is None:
                    c_apply.misses += 1
                    nid = transition(cid, aid)
                    apply_memo[akey] = nid
                else:
                    c_apply.hits += 1
                known = vmap.get(nid * stride + fdi + 1)
                if known is None:
                    known = admit(nid, fdi + 1)
                else:
                    c_vert.hits += 1
                out[FD_LABEL] = (fd_sequence[fdi], known)
            else:
                out[FD_LABEL] = (None, vertex)
            entries = task_memo.get(cid)
            if entries is None:
                entries = task_edges(cid)
            else:
                c_task.hits += 1
            bottom = (None, vertex)
            for label, action, succ_cid in entries:
                if action is None:
                    out[label] = bottom
                else:
                    known = vmap.get(succ_cid * stride + fdi)
                    if known is None:
                        known = admit(succ_cid, fdi)
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

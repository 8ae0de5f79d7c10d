"""Layer attribution from outside the library: spans around public calls.

A :class:`Tracer` replaces public functions and methods of the ``repro``
layers with timing wrappers for the length of one traced repetition and
puts the originals back afterwards.  Nothing under ``src/`` changes.

Each wrapped call inside a unit opens a span with a name, a start, an
end, the span that caused it and the unit's id.  Calls made once per
step (the snapshot, the policy choice, the apply, the ``stop_when``
predicate) would be millions of spans, so they are rolled up instead:
one aggregate per (enclosing span, name) holding the call count, the
total time, the self time and the time spent as a direct child.  A
span's self time is its duration minus the time its children cover.
Everything stays in memory until the repetition ends.

Forked pool workers drop the wrappers right after the fork, so only the
process that owns the tracer records, and worker time is taken from
the results the workers return.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

#: Span kinds: ``span`` records every call, ``step`` rolls calls up.
SPAN = "span"
STEP = "step"

# Frame layout (a list, for speed): id, accumulated child time, and the
# roll-ups of step calls made under it.
_ID, _CHILD, _ROLLUP = 0, 1, 2


class Target:
    """One attribute to wrap: ``owner.attr``, recorded as ``name``.

    ``count`` maps ``(args, result)`` to the span's work measure ``n``
    (steps of a run, vertices of a tree, messages sent, worker seconds
    of a pool).  ``wrap_kwargs`` names callable keyword arguments to wrap
    as step calls of their own name.
    """

    def __init__(
        self,
        owner: Any,
        attr: str,
        name: str,
        kind: str = SPAN,
        count: Optional[Callable[[tuple, Any], int]] = None,
        wrap_kwargs: Tuple[str, ...] = (),
    ):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.kind = kind
        self.count = count
        self.wrap_kwargs = wrap_kwargs


class Tracer:
    """Records spans from wrapped calls made inside :meth:`unit` blocks.

    ``spans`` holds ``[id, name, start, end, parent, unit, self_s, n]``
    per call; ``rollups`` holds ``[parent, unit, name, calls, total_s,
    self_s, direct_s]`` per (enclosing span, step-call name).  Calls made
    outside a unit pass straight through.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.rollups: List[list] = []
        self._stack: List[list] = []
        self._span_frame: Optional[list] = None
        self._unit = -1
        self._next_id = 0
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    # -- Installation --------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> "Tracer":
        for target in targets:
            original = getattr(target.owner, target.attr)
            own = target.attr in vars(target.owner)
            self._saved.append((target.owner, target.attr, original, own))
            setattr(target.owner, target.attr, self._wrap(original, target))
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        """Put every original attribute back (inherited ones by deletion)."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _after_fork(self) -> None:
        # A forked pool worker runs the library untouched.
        self.uninstall()
        self._stack.clear()

    # -- Recording -----------------------------------------------------------

    def unit(self, unit_id: int) -> "_UnitSpan":
        """The root span of one unit; wrapped calls inside it are recorded."""
        return _UnitSpan(self, unit_id)

    def _open(self) -> list:
        self._next_id += 1
        return [self._next_id, 0.0, {}]

    def _close(
        self,
        frame: list,
        name: str,
        start: float,
        end: float,
        parent: Optional[list],
        n: Optional[float],
    ) -> None:
        duration = end - start
        parent_id = None
        if parent is not None:
            parent[_CHILD] += duration
            parent_id = parent[_ID]
        span_id = frame[_ID]
        self.spans.append(
            [span_id, name, start, end, parent_id, self._unit,
             duration - frame[_CHILD], n]
        )
        for step_name, (calls, total, self_s, direct) in frame[_ROLLUP].items():
            self.rollups.append(
                [span_id, self._unit, step_name, calls, total, self_s, direct]
            )

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        if target.kind == STEP:
            return self._wrap_step(fn, target.name)
        tracer = self
        name = target.name
        count = target.count
        wrap_kwargs = target.wrap_kwargs

        def span(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            for key in wrap_kwargs:
                if kwargs.get(key) is not None:
                    kwargs[key] = tracer._wrap_step(kwargs[key], key)
            parent = stack[-1]
            frame = tracer._open()
            outer = tracer._span_frame
            stack.append(frame)
            tracer._span_frame = frame
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                tracer._span_frame = outer
                n = count(args, result) if done and count is not None else None
                tracer._close(frame, name, start, end, parent, n)

        return span

    def _wrap_step(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def step(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [None, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[_CHILD] += duration
                rollup = tracer._span_frame[_ROLLUP]
                entry = rollup.get(name)
                if entry is None:
                    entry = rollup[name] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[_CHILD]
                if parent is tracer._span_frame:
                    entry[3] += duration

        return step


class _UnitSpan:
    """Context manager for one unit's root span (named ``unit``)."""

    def __init__(self, tracer: Tracer, unit_id: int):
        self.tracer = tracer
        self.unit_id = unit_id

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._unit = self.unit_id
        self.frame = tracer._open()
        tracer._stack.append(self.frame)
        tracer._span_frame = self.frame
        self.start = clock()

    def __exit__(self, *exc_info: Any) -> None:
        end = clock()
        tracer = self.tracer
        tracer._stack.pop()
        tracer._span_frame = None
        tracer._close(self.frame, "unit", self.start, end, None, None)


# -- What the traced repetition wraps ----------------------------------------


def _steps(args: tuple, execution: Any) -> int:
    return len(execution)


def _vertices(args: tuple, _result: Any) -> int:
    return args[0].num_vertices


def _returned(args: tuple, value: Any) -> int:
    return value


def _worker_seconds(args: tuple, results: Any) -> float:
    return sum(getattr(r, "wall_s", 0.0) for r in results)


def layer_targets() -> List[Target]:
    """The public calls the traced repetition records, layer by layer."""
    from repro.cache.store import ResultStore
    from repro.core.afd import AFD
    from repro.faults.oracles import AfdValidityOracle
    from repro.ioa.composition import Composition
    from repro.ioa.scheduler import RandomPolicy, RoundRobinPolicy, Scheduler
    from repro.problems.consensus import ConsensusProblem
    from repro.runner import batch, spec
    from repro.system.network import System, SystemBuilder
    from repro.timed import registry
    from repro.timed.automaton import TimedDetectorAutomaton
    from repro.tree.hooks import HookSearch
    from repro.tree.tagged_tree import TaggedTreeGraph
    from repro.tree.valence import ValenceAnalysis

    return [
        Target(spec, "run_spec", "run_spec"),
        Target(SystemBuilder, "build", "SystemBuilder.build"),
        Target(System, "run", "System.run", wrap_kwargs=("stop_when",)),
        Target(Scheduler, "run", "Scheduler.run", count=_steps),
        Target(Composition, "enabled_by_task", "Composition.enabled_by_task", STEP),
        Target(Composition, "apply", "Composition.apply", STEP),
        Target(TimedDetectorAutomaton, "enabled_by_task", "Timed.enabled_by_task", STEP),
        Target(TimedDetectorAutomaton, "apply", "Timed.apply", STEP),
        Target(
            TimedDetectorAutomaton, "messages_sent", "Timed.messages_sent",
            count=_returned,
        ),
        Target(RoundRobinPolicy, "choose", "policy.choose", STEP),
        Target(RandomPolicy, "choose", "policy.choose", STEP),
        Target(AFD, "check_limit", "AFD.check_limit"),
        Target(ConsensusProblem, "check_conditional", "ConsensusProblem.check_conditional"),
        Target(AfdValidityOracle, "check", "AfdValidityOracle.check"),
        Target(registry, "build_automaton", "timed.build_automaton"),
        Target(TaggedTreeGraph, "__init__", "TaggedTreeGraph", count=_vertices),
        Target(ValenceAnalysis, "__init__", "ValenceAnalysis"),
        Target(ValenceAnalysis, "counts", "ValenceAnalysis.counts"),
        Target(HookSearch, "report", "HookSearch.report"),
        Target(ResultStore, "get", "ResultStore.get"),
        Target(ResultStore, "put", "ResultStore.put"),
        Target(batch, "parallel_map", "parallel_map", count=_worker_seconds),
    ]


def compile_targets() -> List[Target]:
    """The compiled core's entry points, timed in the compiled repetition.

    ``compile_automaton`` is bound by name in three modules, so each
    binding is wrapped.
    """
    from repro.compiled import loop, system, tables

    return [
        Target(system, "compile_spec", "compile"),
        Target(system, "compile_automaton", "compile"),
        Target(loop, "compile_automaton", "compile"),
        Target(tables, "compile_automaton", "compile"),
    ]


# -- From spans to per-name totals -------------------------------------------


def totals(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per name: ``calls``, ``total_s``, ``self_s`` and the work count ``n``."""
    out: Dict[str, Dict[str, float]] = {}

    def entry(name: str) -> Dict[str, float]:
        if name not in out:
            out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
        return out[name]

    for _id, name, start, end, _parent, _unit, self_s, n in tracer.spans:
        e = entry(name)
        e["calls"] += 1
        e["total_s"] += end - start
        e["self_s"] += self_s
        e["n"] += n or 0
    for _parent, _unit, name, calls, total, self_s, _direct in tracer.rollups:
        e = entry(name)
        e["calls"] += calls
        e["total_s"] += total
        e["self_s"] += self_s
    return out


def layer_metrics(
    tracer: Tracer, cache: Dict[str, Dict[str, Any]], jobs: int
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition.

    Times are shares of the summed unit wall time (``trace.wall_s``), so
    a layer a workload never enters reads 0 rather than a missing value.
    ``cache`` is the repetition's ``cache_stats_delta``.
    """
    t = totals(tracer)
    none = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
    wall = t["unit"]["total_s"] if "unit" in t else 0.0

    def get(name: str) -> Dict[str, float]:
        return t.get(name, none)

    def frac(*names: str, key: str = "total_s") -> float:
        return sum(get(n)[key] for n in names) / wall if wall else 0.0

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds else 0.0

    def hit_ratio(memo: str) -> float:
        return float(cache.get(memo, {}).get("hit_rate", 0.0))

    pool = get("parallel_map")
    run = get("Scheduler.run")
    tree = get("TaggedTreeGraph")
    return {
        "runner.unattributed_frac": frac("unit", key="self_s"),
        "runner.pool_frac": frac("parallel_map"),
        "runner.parallel_efficiency": rate(pool["n"], jobs * pool["total_s"]),
        "cache.get.calls": get("ResultStore.get")["calls"],
        "cache.get_frac": frac("ResultStore.get"),
        "cache.put.calls": get("ResultStore.put")["calls"],
        "cache.put_frac": frac("ResultStore.put"),
        "cache.hit_ratio": hit_ratio("store.results"),
        "system.build.calls": get("SystemBuilder.build")["calls"],
        "system.build_frac": frac("SystemBuilder.build"),
        "ioa.steps": run["n"],
        "ioa.run_frac": frac("Scheduler.run"),
        "ioa.steps_per_s": rate(run["n"], run["total_s"]),
        "ioa.snapshot.calls": get("Composition.enabled_by_task")["calls"],
        "ioa.snapshot_frac": frac("Composition.enabled_by_task"),
        "ioa.policy_frac": frac("policy.choose", key="self_s"),
        "ioa.apply_frac": frac("Composition.apply"),
        "ioa.stop_when_frac": frac("stop_when"),
        "ioa.enabled_hit_ratio": hit_ratio("composition.enabled"),
        "ioa.dispatch_hit_ratio": hit_ratio("composition.dispatch"),
        "check.fd_frac": frac("AFD.check_limit"),
        "check.consensus_frac": frac("ConsensusProblem.check_conditional"),
        "faults.oracle.calls": get("AfdValidityOracle.check")["calls"],
        "faults.oracle_frac": frac("AfdValidityOracle.check"),
        "timed.build_frac": frac("timed.build_automaton"),
        "timed.snapshot_frac": frac("Timed.enabled_by_task"),
        "timed.apply_frac": frac("Timed.apply"),
        "timed.messages": get("Timed.messages_sent")["n"],
        "tree.build_frac": frac("TaggedTreeGraph"),
        "tree.vertices": tree["n"],
        "tree.vertices_per_s": rate(tree["n"], tree["total_s"]),
        "tree.valence_frac": frac("ValenceAnalysis", "ValenceAnalysis.counts"),
        "tree.hooks_frac": frac("HookSearch.report"),
        "tree.task_edge_hit_ratio": hit_ratio("tree.task-edges"),
        "tree.vertex_hit_ratio": hit_ratio("tree.vertices"),
        "trace.wall_s": wall,
        "trace.spans": len(tracer.spans),
    }

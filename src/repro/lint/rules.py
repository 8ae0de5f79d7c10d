"""The AST rules: determinism invariants as stable REPRO codes.

Each rule inspects one parsed module and yields findings.  The rules
encode the conventions the harness's reproducibility claims rest on —
byte-identical serial-vs-parallel traces, cached-vs-brute-force series
equality, seed-pure chaos schedules — as static checks:

=========  ==============================================================
REPRO001   wall-clock reads (``time.time``, ``datetime.now``, argless
           ``datetime.today``) outside the explicit allowlist
REPRO002   unseeded randomness (``random.Random()`` with no seed,
           module-level ``random.*``/``numpy.random.*`` calls,
           ``random.SystemRandom``, ``os.urandom``, ``secrets``)
REPRO003   iteration over ``set()`` / ``dict.keys()`` results flowing
           into trace/serialization sinks without ``sorted(...)``
REPRO005   mutable default arguments in ``Automaton``-subclass
           constructors
REPRO007   writes to module-level state (or closure cells) reachable
           from fork-pool worker entry points
REPRO008   seeds built by arithmetic mixing (``seed + i``) or
           ``hash(...)`` instead of ``derive_seed``/``channel_seed``
=========  ==============================================================

REPRO004, REPRO006 and REPRO009 are retired codes (``docs/LINT.md``);
selecting one is a usage error.

Name resolution is import-aware but purely syntactic: ``import time as
clock; clock.time()`` is caught, a ``time`` attribute on an arbitrary
object is not.  REPRO003 is a heuristic over direct data flow (sink
arguments and loop bodies); it does not chase values through
assignments.  REPRO007/REPRO008 are the flow-aware layer: their
machinery (per-module call graph, seed taint) lives in
:mod:`repro.lint.dataflow`.  ``docs/LINT.md`` carries the full catalog
with bad/good examples per code.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, finding_at

# ---------------------------------------------------------------------------
# Shared syntactic helpers
# ---------------------------------------------------------------------------


def import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the qualified names they were imported as.

    ``import time as clock`` maps ``clock -> time``; ``from datetime
    import datetime as dt`` maps ``dt -> datetime.datetime``.  Star
    imports and relative imports are ignored.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """The qualified dotted name of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def callee_last_segment(call: ast.Call) -> Optional[str]:
    """The final name segment of a call's callee (``a.b.C(...)`` → C)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class Rule:
    """One AST rule: a stable code plus a ``check`` over a module."""

    code: str = ""
    summary: str = ""

    def check(self, module: "ModuleSource") -> Iterator[Finding]:
        raise NotImplementedError


class ModuleSource:
    """A parsed module handed to the rules."""

    def __init__(self, path: str, text: str, tree: ast.Module):
        self.path = path  # repo-relative posix path, as reported
        self.text = text
        self.tree = tree
        self.aliases = import_aliases(tree)

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return finding_at(self.path, node, code, message)


# ---------------------------------------------------------------------------
# REPRO001 — wall-clock reads
# ---------------------------------------------------------------------------

#: Qualified names whose *value* is the current wall-clock time.
WALL_CLOCK_NAMES: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

#: ``today`` classmethods: flagged only as argless calls.
WALL_CLOCK_TODAY: FrozenSet[str] = frozenset(
    {
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: path-suffix -> qualified names allowed there.  The two entries are
#: the ``created_unix`` stamps of the benchmark artifact and the profile
#: summary — each a read *about* the current moment behind an injectable
#: ``now_fn`` seam, flowing into no trace or series (docs/LINT.md).
WALL_CLOCK_ALLOWLIST: Dict[str, FrozenSet[str]] = {
    "repro/obs/schema.py": frozenset({"time.time"}),
    "repro/obs/prof.py": frozenset({"time.time"}),
}


class WallClockRule(Rule):
    code = "REPRO001"
    summary = "wall-clock read outside the allowlist"

    def _allowed(self, module: ModuleSource, qualified: str) -> bool:
        path = module.path.replace("\\", "/")
        for suffix, names in WALL_CLOCK_ALLOWLIST.items():
            if path.endswith(suffix) and qualified in names:
                return True
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        call_funcs: Set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                call_funcs.add(id(node.func))
                qualified = resolve_dotted(node.func, module.aliases)
                if qualified is None:
                    continue
                if qualified in WALL_CLOCK_NAMES or (
                    qualified in WALL_CLOCK_TODAY
                    and not node.args
                    and not node.keywords
                ):
                    if not self._allowed(module, qualified):
                        yield module.finding(
                            node.func,
                            self.code,
                            f"wall-clock call {qualified}() in a "
                            "simulation/library path; inject a now_fn or "
                            "use the seeded scheduler clock",
                        )
        # Bare references (aliasing, default arguments) leak the clock
        # just as well as calls do.
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if id(node) in call_funcs:
                continue
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            qualified = resolve_dotted(node, module.aliases)
            if qualified in WALL_CLOCK_NAMES and not self._allowed(
                module, qualified
            ):
                yield module.finding(
                    node,
                    self.code,
                    f"reference to wall-clock function {qualified}; "
                    "aliasing it smuggles nondeterminism past review",
                )


# ---------------------------------------------------------------------------
# REPRO002 — unseeded randomness
# ---------------------------------------------------------------------------

#: Module-level ``random`` functions that draw from the shared global RNG.
GLOBAL_RNG_FUNCS: FrozenSet[str] = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.seed",
        "random.getrandbits",
        "random.randbytes",
    }
)

#: OS-entropy reads: irreproducible by construction.
ENTROPY_FUNCS: FrozenSet[str] = frozenset(
    {"os.urandom", "secrets.token_bytes", "secrets.token_hex", "secrets.randbits"}
)

#: ``numpy.random`` module-level functions (the shared legacy global
#: RNG) — every spelling resolves through the import aliases, so
#: ``np.random.seed`` and ``from numpy.random import shuffle`` are both
#: caught.
NUMPY_GLOBAL_RNG_FUNCS: FrozenSet[str] = frozenset(
    {
        f"numpy.random.{name}"
        for name in (
            "random",
            "rand",
            "randn",
            "randint",
            "random_sample",
            "choice",
            "shuffle",
            "permutation",
            "normal",
            "uniform",
            "standard_normal",
            "bytes",
            "seed",
        )
    }
)

#: ``numpy.random`` generator constructors: fine *with* a seed.
NUMPY_RNG_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"numpy.random.default_rng", "numpy.random.RandomState", "numpy.random.Generator"}
)


class UnseededRandomRule(Rule):
    code = "REPRO002"
    summary = "unseeded or process-global randomness"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = resolve_dotted(node.func, module.aliases)
            if qualified is None:
                continue
            if qualified in GLOBAL_RNG_FUNCS:
                yield module.finding(
                    node.func,
                    self.code,
                    f"{qualified}() uses the process-global RNG; "
                    "construct random.Random(seed) from a derived seed",
                )
            elif qualified in NUMPY_GLOBAL_RNG_FUNCS:
                yield module.finding(
                    node.func,
                    self.code,
                    f"{qualified}() uses numpy's process-global RNG; "
                    "construct numpy.random.default_rng(seed) from a "
                    "derived seed",
                )
            elif qualified in NUMPY_RNG_CONSTRUCTORS:
                seeded = bool(node.args) or any(
                    kw.arg in (None, "seed") for kw in node.keywords
                )
                if not seeded:
                    yield module.finding(
                        node.func,
                        self.code,
                        f"{qualified}() without a seed draws from OS "
                        "entropy; pass a derived seed",
                    )
            elif qualified in ENTROPY_FUNCS:
                yield module.finding(
                    node.func,
                    self.code,
                    f"{qualified}() reads OS entropy and can never be "
                    "reproduced from a seed",
                )
            elif qualified == "random.SystemRandom":
                yield module.finding(
                    node.func,
                    self.code,
                    "random.SystemRandom is entropy-backed and can never "
                    "be reproduced from a seed",
                )
            elif qualified == "random.Random":
                seeded = bool(node.args) or any(
                    kw.arg in (None, "x", "seed") for kw in node.keywords
                )
                if not seeded:
                    yield module.finding(
                        node.func,
                        self.code,
                        "random.Random() without a seed falls back to OS "
                        "entropy; pass a derived seed "
                        "(repro.runner.seeds.derive_seed)",
                    )


# ---------------------------------------------------------------------------
# REPRO003 — unordered iteration into serialization sinks
# ---------------------------------------------------------------------------

#: Fully qualified sink callables.
SINK_QUALIFIED: FrozenSet[str] = frozenset({"json.dump", "json.dumps"})

#: Callee last-segments treated as serialization/trace sinks.
SINK_LAST_SEGMENTS: FrozenSet[str] = frozenset(
    {
        "jsonify_cell",
        "canonical_jsonl_lines",
        "jsonl_lines",
        "to_jsonl",
        "writelines",
        "make_bench_artifact",
    }
)

#: Calls that neutralize iteration order (sorted) or never depend on it
#: (pure aggregates); their subtrees are skipped.
ORDER_NEUTRAL_CALLS: FrozenSet[str] = frozenset(
    {
        "sorted",
        "sorted_tuple",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
    }
)


def _is_unordered_expr(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to an iteration-order-unstable value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        last = callee_last_segment(node)
        if last in ("set", "frozenset"):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        ):
            return True
    return False


def _iter_unordered(node: ast.AST) -> Iterator[ast.AST]:
    """Unordered expressions at or under ``node``, skipping order-neutral
    subtrees (``sorted(...)``, ``len(...)``, ...)."""
    if isinstance(node, ast.Call):
        last = callee_last_segment(node)
        if last in ORDER_NEUTRAL_CALLS:
            return
    if _is_unordered_expr(node):
        yield node
        return
    for child in ast.iter_child_nodes(node):
        yield from _iter_unordered(child)


class UnorderedIterationRule(Rule):
    code = "REPRO003"
    summary = "unordered-collection iteration feeding a serialization sink"

    def _is_sink(self, call: ast.Call, aliases: Dict[str, str]) -> bool:
        qualified = resolve_dotted(call.func, aliases)
        if qualified in SINK_QUALIFIED:
            return True
        return callee_last_segment(call) in SINK_LAST_SEGMENTS

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        sink_calls: List[ast.Call] = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Call)
            and self._is_sink(node, module.aliases)
        ]
        seen: Set[int] = set()
        for call in sink_calls:
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for unordered in _iter_unordered(arg):
                    if id(unordered) in seen:
                        continue
                    seen.add(id(unordered))
                    yield module.finding(
                        unordered,
                        self.code,
                        "unordered collection reaches a serialization "
                        "sink; wrap the iteration in sorted(...) to "
                        "pin the order",
                    )
        # For-loops over unordered iterables whose bodies hit a sink.
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if not any(_iter_unordered(node.iter)):
                continue
            body_has_sink = any(
                isinstance(inner, ast.Call)
                and self._is_sink(inner, module.aliases)
                for stmt in node.body
                for inner in ast.walk(stmt)
            )
            if body_has_sink and id(node.iter) not in seen:
                seen.add(id(node.iter))
                yield module.finding(
                    node.iter,
                    self.code,
                    "loop over an unordered collection emits into a "
                    "serialization sink; iterate sorted(...) instead",
                )


# ---------------------------------------------------------------------------
# REPRO005 — mutable defaults in Automaton constructors
# ---------------------------------------------------------------------------


def _is_automaton_base(base: ast.expr) -> bool:
    last: Optional[str] = None
    if isinstance(base, ast.Attribute):
        last = base.attr
    elif isinstance(base, ast.Name):
        last = base.id
    if last is None:
        return False
    return last.endswith("Automaton") or last in ("AFD", "ProcessAutomaton")


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        return callee_last_segment(node) in (
            "list",
            "dict",
            "set",
            "bytearray",
            "defaultdict",
            "deque",
        )
    return False


class MutableDefaultRule(Rule):
    code = "REPRO005"
    summary = "mutable default argument in an Automaton constructor"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_is_automaton_base(b) for b in node.bases):
                continue
            for stmt in node.body:
                if (
                    not isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    or stmt.name != "__init__"
                ):
                    continue
                defaults = list(stmt.args.defaults) + [
                    d for d in stmt.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        yield module.finding(
                            default,
                            self.code,
                            f"mutable default in {node.name}.__init__; "
                            "shared across instances and across runs — "
                            "use None or an immutable value",
                        )


# ---------------------------------------------------------------------------
# The flow-aware layer (REPRO007-REPRO008, repro.lint.dataflow)
# ---------------------------------------------------------------------------


class WorkerRaceRule(Rule):
    """REPRO007: no writes to module state from fork-pool workers.

    Functions handed to ``parallel_map`` / ``Pool.imap`` execute in
    forked worker processes; a write to module-level mutable state (or a
    closure cell) lands in the *worker's* copy and silently diverges
    from the parent — results must flow through return values.
    ``parallel_map`` may run any prefix of a batch in the caller before
    it forks, depending on the items' measured time, so such a write
    diverges with timing, not only with the job count.  The
    per-module call graph extends the check to everything a worker entry
    point reaches.  ``cache_counter(...)`` bindings are the sanctioned
    telemetry seams (merged explicitly, never part of a series).
    """

    code = "REPRO007"
    summary = "worker-reachable write to module-level state"

    _KIND_HINTS = {
        "rebind": "rebinding a module-level name",
        "mutate": "writing into module-level state",
        "mutate-call": "mutating module-level state in place",
        "nonlocal": "writing a closure cell",
    }

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        from repro.lint.dataflow import worker_state_writes

        for write in worker_state_writes(module.tree, module.path):
            hint = self._KIND_HINTS.get(write.kind, write.kind)
            yield module.finding(
                write.node,
                self.code,
                f"{hint} {write.name!r} in {write.via!r}, reachable from "
                f"worker entry point {write.entry!r}; fork-pool workers "
                "see private copies, so the write is lost or diverges "
                "across processes — return the value instead (allowed "
                "seams: cache_counter bindings)",
            )


class SeedDisciplineRule(Rule):
    """REPRO008: seeds come from ``derive_seed``, not arithmetic.

    ``seed + i`` collides across sweep axes and ``hash(...)`` is salted
    per process (PYTHONHASHSEED), so both break the machine-stable
    seed-derivation contract.  The rule taint-tracks one assignment
    level inside each scope and flags undisciplined expressions reaching
    a ``random.Random(...)`` construction or a ``seed=`` keyword.
    """

    code = "REPRO008"
    summary = "seed constructed by arithmetic or hash() instead of derive_seed"

    _WHY = {
        "mixing": (
            "arithmetic seed mixing collides across sweep axes; derive "
            "the stream with derive_seed(seed, *components) instead"
        ),
        "hash": (
            "hash() is salted per process (PYTHONHASHSEED) and is not "
            "machine-stable; use derive_seed(...) instead"
        ),
    }

    def _seed_sites(
        self, call: ast.Call, aliases: Dict[str, str]
    ) -> Iterator[ast.expr]:
        """The seed-valued argument expressions of ``call``."""
        qualified = resolve_dotted(call.func, aliases)
        if qualified == "random.Random":
            if call.args:
                yield call.args[0]
            for kw in call.keywords:
                if kw.arg in ("x", "seed"):
                    yield kw.value
        else:
            for kw in call.keywords:
                if kw.arg == "seed":
                    yield kw.value

    @staticmethod
    def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
        """The nodes of ``scope`` without descending into nested scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # inner scopes get their own assignment map
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        from repro.lint.dataflow import single_assignments, tainted_seed_expr

        scopes: List[ast.AST] = [module.tree]
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        for scope in scopes:
            assigned = single_assignments(scope)
            for node in self._walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                for site in self._seed_sites(node, module.aliases):
                    why = tainted_seed_expr(site, assigned)
                    if why is not None:
                        yield module.finding(
                            site, self.code, self._WHY[why]
                        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

ALL_RULES: Tuple[Rule, ...] = (
    WallClockRule(),
    UnseededRandomRule(),
    UnorderedIterationRule(),
    MutableDefaultRule(),
    WorkerRaceRule(),
    SeedDisciplineRule(),
)

#: code -> rule instance.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in ALL_RULES}


def rule_codes() -> Sequence[str]:
    """Every AST rule code, sorted."""
    return sorted(RULES_BY_CODE)

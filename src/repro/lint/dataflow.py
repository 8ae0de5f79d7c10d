"""Layer 3: per-module flow analyses behind REPRO007 and REPRO008.

The AST rules (layer 2) match one syntactic shape at a time; the
contract checks (layer 1) judge live automata.  This module holds the
machinery for the *flow-aware* rules, which follow values and calls
inside one module:

* :func:`worker_entry_points` / :func:`worker_state_writes` — the
  per-module call-graph analysis behind REPRO007: functions handed to a
  fork-pool fan-out (``parallel_map``, ``pool.imap``) and the writes to
  module-level state reachable from them;
* :func:`tainted_seed_expr` / :func:`single_assignments` — the seed
  taint behind REPRO008.

Everything here is import-light and purely syntactic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

# ---------------------------------------------------------------------------
# REPRO007 — cross-process worker race hazards
# ---------------------------------------------------------------------------

#: Callee spellings whose first positional argument is fanned out to
#: worker processes.  ``parallel_map`` matches as a bare name or an
#: attribute (``runner.parallel_map``); the pool methods only as
#: attributes so the ``map`` builtin stays out of scope.
FAN_OUT_FIRST_ARG_NAMES: FrozenSet[str] = frozenset({"parallel_map"})
FAN_OUT_FIRST_ARG_ATTRS: FrozenSet[str] = frozenset(
    {"parallel_map", "map", "imap", "imap_unordered", "starmap", "apply_async"}
)

#: Method names that mutate their receiver in place.
MUTATING_METHODS: FrozenSet[str] = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "appendleft",
        "extendleft",
    }
)

#: ``(path suffix, module-level name)`` writes that are allowed from
#: worker-reachable code — intentional telemetry seams whose divergence
#: across processes is understood and reported (cache hit/miss counters
#: are merged, never part of a series).
WORKER_STATE_ALLOWLIST: FrozenSet[Tuple[str, str]] = frozenset()

#: Initializer callees whose module-level bindings are treated as
#: allowed seams: ``_C = cache_counter("...")`` is the documented
#: pattern for per-process cache telemetry.
ALLOWED_SEAM_FACTORIES: FrozenSet[str] = frozenset({"cache_counter"})


def _module_level_functions(tree: ast.Module) -> Dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _module_level_names(tree: ast.Module) -> Dict[str, Optional[ast.expr]]:
    """Module-level bindings: name -> initializer expression (or None)."""
    out: Dict[str, Optional[ast.expr]] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out[target.id] = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                out[node.target.id] = node.value
    return out


def _first_fanned_arg(call: ast.Call) -> Optional[ast.expr]:
    """The worker argument of a fan-out call, or None."""
    callee = call.func
    matches = False
    if isinstance(callee, ast.Name):
        matches = callee.id in FAN_OUT_FIRST_ARG_NAMES
    elif isinstance(callee, ast.Attribute):
        matches = callee.attr in FAN_OUT_FIRST_ARG_ATTRS
    if not matches or not call.args:
        return None
    worker = call.args[0]
    # functools.partial(fn, ...) fans out fn.
    if isinstance(worker, ast.Call):
        last = worker.func
        name = (
            last.attr
            if isinstance(last, ast.Attribute)
            else last.id
            if isinstance(last, ast.Name)
            else None
        )
        if name == "partial" and worker.args:
            return worker.args[0]
    return worker


def worker_entry_points(tree: ast.Module) -> Dict[str, ast.AST]:
    """Module-level functions handed to a fork-pool fan-out call."""
    functions = _module_level_functions(tree)
    entries: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        worker = _first_fanned_arg(node)
        if isinstance(worker, ast.Name) and worker.id in functions:
            entries[worker.id] = functions[worker.id]
    return entries


def _binding_names(target: ast.expr) -> Iterable[str]:
    """Names a target expression *binds* — ``x[k] = ...`` and
    ``x.attr = ...`` write through ``x`` without binding it, so
    subscript/attribute targets yield nothing."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _local_names(func: ast.AST) -> Set[str]:
    """Names bound locally inside ``func`` (minus ``global`` escapes)."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    locals_: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        locals_.add(arg.arg)
    globals_: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                locals_.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            locals_.update(_binding_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    locals_.update(_binding_names(item.optional_vars))
        elif isinstance(node, ast.comprehension):
            locals_.update(_binding_names(node.target))
    return locals_ - globals_


def _root_name(node: ast.expr) -> Optional[str]:
    """The root Name of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class WorkerWrite:
    """One hazardous write found by the REPRO007 analysis."""

    node: ast.AST
    name: str
    kind: str  # "rebind" | "mutate" | "mutate-call" | "nonlocal"
    entry: str  # the worker entry point it is reachable from
    via: str  # the function containing the write


def _reachable_functions(
    tree: ast.Module, entries: Dict[str, ast.AST]
) -> Dict[str, Tuple[str, ast.AST]]:
    """function name -> (entry it is reachable from, def node)."""
    functions = _module_level_functions(tree)
    reachable: Dict[str, Tuple[str, ast.AST]] = {}
    for entry_name in sorted(entries):
        stack = [entry_name]
        while stack:
            name = stack.pop()
            if name in reachable:
                continue
            func = functions.get(name)
            if func is None:
                continue
            reachable[name] = (entry_name, func)
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Name
                ):
                    if node.func.id in functions:
                        stack.append(node.func.id)
    return reachable


def worker_state_writes(
    tree: ast.Module, path: str = ""
) -> List[WorkerWrite]:
    """Writes to module-level state reachable from worker entry points."""
    entries = worker_entry_points(tree)
    if not entries:
        return []
    module_names = _module_level_names(tree)
    allowed: Set[str] = set()
    norm_path = path.replace("\\", "/")
    for name, initializer in module_names.items():
        if isinstance(initializer, ast.Call):
            callee = initializer.func
            last = (
                callee.attr
                if isinstance(callee, ast.Attribute)
                else callee.id
                if isinstance(callee, ast.Name)
                else None
            )
            if last in ALLOWED_SEAM_FACTORIES:
                allowed.add(name)
    for suffix, name in WORKER_STATE_ALLOWLIST:
        if norm_path.endswith(suffix):
            allowed.add(name)

    writes: List[WorkerWrite] = []
    for fn_name, (entry, func) in sorted(
        _reachable_functions(tree, entries).items()
    ):
        locals_ = _local_names(func)
        nonlocals: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Nonlocal):
                nonlocals.update(node.names)
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    root = _root_name(target)
                    if root is None or root in allowed:
                        continue
                    if root in nonlocals:
                        writes.append(
                            WorkerWrite(node, root, "nonlocal", entry, fn_name)
                        )
                        continue
                    if root in locals_ and isinstance(target, ast.Name):
                        continue
                    if root in locals_:
                        # Subscript/attribute write through a local.
                        continue
                    if root in module_names:
                        kind = (
                            "rebind"
                            if isinstance(target, ast.Name)
                            else "mutate"
                        )
                        writes.append(
                            WorkerWrite(node, root, kind, entry, fn_name)
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr not in MUTATING_METHODS:
                    continue
                root = _root_name(node.func.value)
                if (
                    root is not None
                    and root not in allowed
                    and root not in locals_
                    and root in module_names
                ):
                    writes.append(
                        WorkerWrite(node, root, "mutate-call", entry, fn_name)
                    )
    return writes


# ---------------------------------------------------------------------------
# REPRO008 — seed-derivation discipline (per-function taint helpers)
# ---------------------------------------------------------------------------

#: Callables that *are* the sanctioned seed-derivation roots.
SEED_DERIVATION_ROOTS: FrozenSet[str] = frozenset(
    {"derive_seed", "derive_seeds", "channel_seed"}
)


def _last_segment(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def tainted_seed_expr(
    node: ast.expr, assigned: Dict[str, ast.expr]
) -> Optional[str]:
    """Why ``node`` is an undisciplined seed expression, or ``None``.

    Returns ``"mixing"`` for arithmetic (``seed + i``, ``seed * 31``),
    ``"hash"`` for salted ``hash(...)`` flow, chasing one level of
    single-assignment locals recorded in ``assigned``.
    """
    if isinstance(node, ast.BinOp):
        return "mixing"
    if isinstance(node, ast.Call):
        if _last_segment(node.func) == "hash":
            return "hash"
        return None
    if isinstance(node, ast.Name):
        value = assigned.get(node.id)
        if value is not None and not isinstance(value, ast.Name):
            return tainted_seed_expr(value, {})
    return None


def single_assignments(scope: ast.AST) -> Dict[str, ast.expr]:
    """Names assigned exactly once in ``scope`` -> their value node.

    Nested function/class scopes are not descended into, so the map is
    honest about what a name means *in this scope*.
    """
    counts: Dict[str, int] = {}
    values: Dict[str, ast.expr] = {}

    def visit(node: ast.AST, top: bool) -> None:
        if not top and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    counts[target.id] = counts.get(target.id, 0) + 1
                    values[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                counts[node.target.id] = counts.get(node.target.id, 0) + 1
                values[node.target.id] = node.value
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                counts[node.target.id] = counts.get(node.target.id, 0) + 2
        for child in ast.iter_child_nodes(node):
            visit(child, False)

    visit(scope, True)
    return {
        name: value
        for name, value in values.items()
        if counts.get(name) == 1
    }


__all__ = [
    "ALLOWED_SEAM_FACTORIES",
    "FAN_OUT_FIRST_ARG_ATTRS",
    "FAN_OUT_FIRST_ARG_NAMES",
    "MUTATING_METHODS",
    "SEED_DERIVATION_ROOTS",
    "WORKER_STATE_ALLOWLIST",
    "WorkerWrite",
    "single_assignments",
    "tainted_seed_expr",
    "worker_entry_points",
    "worker_state_writes",
]

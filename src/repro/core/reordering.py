"""Constrained reorderings of failure-detector sequences (Section 3.2).

A permutation t' of t is a *constrained reordering* of t iff for every
pair of events e, e' such that e precedes e' in t and either

* ``loc(e) = loc(e')``, or
* ``e ∈ I-hat`` (e is a crash event),

e also precedes e' in t'.  Constrained reorderings model delaying output
events across locations; closure under them is the third defining AFD
property.

Implementation notes: events are occurrences, so duplicated actions must be
matched between t and t'.  Because identical actions share a location, the
same-location constraint forces equal actions to keep their relative order,
so matching the k-th occurrence in t to the k-th occurrence in t' is the
canonical (and only possible) matching.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.ioa.actions import Action
from repro.system.fault_pattern import is_crash


def constrained_predecessors(t: Sequence[Action]) -> List[Set[int]]:
    """For each occurrence index q of t, the set of indices p < q that must
    precede it in any constrained reordering."""
    preds: List[Set[int]] = [set() for _ in t]
    for q in range(len(t)):
        for p in range(q):
            if t[p].location == t[q].location or is_crash(t[p]):
                preds[q].add(p)
    return preds


def _occurrence_positions(t: Sequence[Action]) -> Dict[Action, List[int]]:
    positions: Dict[Action, List[int]] = defaultdict(list)
    for k, a in enumerate(t):
        positions[a].append(k)
    return positions


def is_constrained_reordering_of(
    candidate: Sequence[Action], t: Sequence[Action]
) -> bool:
    """Whether ``candidate`` is a constrained reordering of ``t`` (exact)."""
    if len(candidate) != len(t):
        return False
    pos_t = _occurrence_positions(t)
    pos_c = _occurrence_positions(candidate)
    if set(pos_t) != set(pos_c):
        return False
    if any(len(pos_t[a]) != len(pos_c[a]) for a in pos_t):
        return False
    # where[p] = position in candidate of the occurrence that is t[p].
    where: List[int] = [0] * len(t)
    counters: Dict[Action, int] = defaultdict(int)
    for p, a in enumerate(t):
        where[p] = pos_c[a][counters[a]]
        counters[a] += 1
    for q, preds in enumerate(constrained_predecessors(t)):
        for p in preds:
            if where[p] > where[q]:
                return False
    return True


def random_constrained_reordering(
    t: Sequence[Action], seed: int = 0
) -> List[Action]:
    """A random constrained reordering of ``t``.

    Randomized Kahn's algorithm over the constraint DAG: repeatedly emit a
    uniformly random occurrence whose constrained predecessors have all
    been emitted.
    """
    rng = random.Random(seed)
    preds = constrained_predecessors(t)
    remaining_preds = [set(p) for p in preds]
    successors: List[List[int]] = [[] for _ in t]
    for q, ps in enumerate(preds):
        for p in ps:
            successors[p].append(q)
    ready = sorted(q for q in range(len(t)) if not remaining_preds[q])
    result: List[Action] = []
    while ready:
        k = rng.randrange(len(ready))
        chosen = ready.pop(k)
        result.append(t[chosen])
        for q in successors[chosen]:
            remaining_preds[q].discard(chosen)
            if not remaining_preds[q]:
                ready.append(q)
    assert len(result) == len(t)
    return result


def enumerate_constrained_reorderings(
    t: Sequence[Action], max_results: Optional[int] = None
) -> Iterator[List[Action]]:
    """All constrained reorderings of ``t`` (all topological orders of the
    constraint DAG); exponential, use only on short sequences."""
    preds = constrained_predecessors(t)
    n = len(t)
    count = 0

    def backtrack(
        emitted: List[int], used: Set[int]
    ) -> Iterator[List[Action]]:
        nonlocal count
        if max_results is not None and count >= max_results:
            return
        if len(emitted) == n:
            count += 1
            yield [t[k] for k in emitted]
            return
        for q in range(n):
            if q in used:
                continue
            if preds[q] <= used:
                emitted.append(q)
                used.add(q)
                yield from backtrack(emitted, used)
                used.discard(q)
                emitted.pop()

    yield from backtrack([], set())


def delay_location(
    t: Sequence[Action], location: int, by: int
) -> List[Action]:
    """A specific useful constrained reordering: push each output event at
    ``location`` later by up to ``by`` positions, respecting constraints.

    Returns a constrained reordering of ``t`` (possibly equal to ``t`` when
    nothing can move).
    """
    result = list(t)
    n = len(result)
    moved = True
    budget = by
    while moved and budget > 0:
        moved = False
        for k in range(n - 2, -1, -1):
            a, b = result[k], result[k + 1]
            movable = (
                a.location == location
                and not is_crash(a)
                and a.location != b.location
                and not is_crash(a)
            )
            if movable:
                result[k], result[k + 1] = b, a
                moved = True
        budget -= 1
    return result

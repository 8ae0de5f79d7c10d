"""Samplings of failure-detector sequences (Section 3.2).

A sequence t' is a *sampling* of t iff

1. t' is a subsequence of t;
2. for every live location i, ``t'|O_{D,i} = t|O_{D,i}`` (all outputs at
   live locations are retained);
3. for every faulty location i, t' contains the first ``crash_i`` event of
   t, and ``t'|O_{D,i}`` is a prefix of ``t|O_{D,i}``.

Samplings model a failure detector 'skipping' a suffix of outputs at a
faulty location; closure under sampling is the second defining property of
an AFD.  All functions below are exact on finite sequences.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, List, Optional, Sequence, Set

from repro.ioa.actions import Action
from repro.core.validity import (
    faulty_locations,
    first_crash_index,
    outputs_at,
)
from repro.system.fault_pattern import is_crash


def _is_subsequence(candidate: Sequence[Action], t: Sequence[Action]) -> bool:
    """Order-preserving subsequence test (greedy matching)."""
    it = iter(t)
    return all(any(mine == theirs for theirs in it) for mine in candidate)


def is_sampling_of(
    candidate: Sequence[Action],
    t: Sequence[Action],
) -> bool:
    """Whether ``candidate`` is a sampling of ``t`` (exact, finite).

    Liveness of locations is judged from ``t`` itself: a location is faulty
    iff a crash event for it occurs in ``t``.
    """
    if not _is_subsequence(candidate, t):
        return False
    faulty = faulty_locations(t)
    # Locations mentioned by outputs in either sequence.
    locations: Set[int] = {
        a.location for a in itertools.chain(t, candidate) if a.location is not None
    }
    for i in locations:
        mine = outputs_at(candidate, i)
        theirs = outputs_at(t, i)
        if i in faulty:
            # Must retain the first crash_i event.
            k = first_crash_index(t, i)
            assert k is not None
            if first_crash_index(candidate, i) is None:
                return False
            # Outputs must form a prefix.
            if mine != theirs[: len(mine)]:
                return False
        else:
            if mine != theirs:
                return False
    return True


def random_sampling(
    t: Sequence[Action],
    seed: int = 0,
) -> List[Action]:
    """A uniformly-flavored random sampling of ``t``.

    For each faulty location, keeps a random prefix of its outputs; keeps
    each location's first crash event and drops later (duplicate) crash
    events with probability 1/2; keeps everything at live locations.
    """
    rng = random.Random(seed)
    faulty = faulty_locations(t)
    keep_counts = {}
    for i in faulty:
        total = len(outputs_at(t, i))
        keep_counts[i] = rng.randint(0, total)
    first_crash_seen: Set[int] = set()
    emitted = {i: 0 for i in faulty}
    result: List[Action] = []
    for a in t:
        if is_crash(a):
            if a.location not in first_crash_seen:
                first_crash_seen.add(a.location)
                result.append(a)
            elif rng.random() < 0.5:
                result.append(a)
        elif a.location in faulty:
            if emitted[a.location] < keep_counts[a.location]:
                emitted[a.location] += 1
                result.append(a)
        else:
            result.append(a)
    return result


def enumerate_samplings(
    t: Sequence[Action],
    max_results: Optional[int] = None,
) -> Iterator[List[Action]]:
    """All samplings of ``t`` (exponential; use only on short sequences).

    Enumerates every combination of (prefix length of outputs per faulty
    location) x (subset of removable duplicate crash events).
    """
    t = list(t)
    faulty = sorted(faulty_locations(t))
    # Indices of duplicate crash events (first crash per location must stay).
    seen: Set[int] = set()
    removable_crashes: List[int] = []
    for k, a in enumerate(t):
        if is_crash(a):
            if a.location in seen:
                removable_crashes.append(k)
            else:
                seen.add(a.location)
    prefix_choices = [
        range(len(outputs_at(t, i)) + 1) for i in faulty
    ]
    count = 0
    for prefix_lens in itertools.product(*prefix_choices):
        keep = dict(zip(faulty, prefix_lens))
        for removed in _all_subsets(removable_crashes):
            emitted = {i: 0 for i in faulty}
            sampling: List[Action] = []
            for k, a in enumerate(t):
                if k in removed:
                    continue
                if is_crash(a):
                    sampling.append(a)
                elif a.location in keep:
                    if emitted[a.location] < keep[a.location]:
                        emitted[a.location] += 1
                        sampling.append(a)
                else:
                    sampling.append(a)
            yield sampling
            count += 1
            if max_results is not None and count >= max_results:
                return


def _all_subsets(items: List[int]) -> Iterator[Set[int]]:
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield set(combo)

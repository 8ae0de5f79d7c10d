"""Step-level profiling: where the simulation engine's time actually goes.

A kernel's ``kernel_wall_s`` says nothing about whether the budget went
to enabled-set snapshots, policy choices or applies, and nothing about
whether the hot-path memos (dispatch, per-component enabled cache, tree
vertex/task-edge memos) are actually hitting.  This module sees below
whole-run wall time.  Two halves:

:class:`StepProfiler`
    Hierarchical per-phase accounting *inside* the scheduler step loop.
    The phases mirror the Section 2 automaton step semantics — resolve
    what is enabled, choose, apply — plus the chaos layer's internal
    channel clock:

    ================  ====================================================
    ``stop-when``     the run's ``stop_when`` predicate, evaluated before
                      every executed step when one is given
    ``snapshot``      the per-step enabled-by-task snapshot (Section 2.2
                      enabledness over the composed signature)
    ``policy``        the scheduler policy's choice among enabled tasks
                      (the fairness-resolving nondeterminism, Section 2.4)
    ``apply``         the transition function on the chosen action
    ``chan-tick``     applies of the chaos channels' internal ``chan-tick``
                      action (delay aging), split out of ``apply``
    ``injection``     the enabledness check of adversary-injected free
                      actions
    ``compile``       compiled engine: table resolution, booked before the
                      run starts
    ``replay``        once per closed run: extending it by repeating its
                      cycle
    ``unattributed``  once per run: the loop's wall time minus every phase
                      booked inside it (queue bookkeeping, appends)
    ================  ====================================================

    Every phase carries **two** books: a deterministic call counter
    (byte-stable across machines for a fixed spec) and a wall-clock
    total read through an injectable ``clock`` (default
    ``time.perf_counter``).  Wall time never flows into trace or series
    data — it lives only in the profile summary.  A run attaches a
    profiler by wrapping the callables its one step loop binds at run
    start (:meth:`StepProfiler.timed`).
    Each wrapper books its callable's *self* time, so a run's phases sum
    to its loop wall.  Without a profiler nothing is wrapped: the loop
    calls the bound methods directly.

Cache telemetry (:func:`cache_counter`)
    Process-global named hit/miss/evict counters the hot-path memos
    increment directly (plain integer adds — no registry lookups, no
    branches).  The composition increments ``composition.dispatch`` /
    ``composition.enabled`` / ``composition.snapshot`` /
    ``composition.task``; the tagged tree
    increments ``tree.task-edges`` / ``tree.vertices``.  Counts are pure
    functions of the executed steps, so they are themselves deterministic
    observables.  :func:`cache_stats_snapshot` /
    :func:`cache_stats_delta` turn them into profile fields.

The profile summary (:meth:`StepProfiler.summary`) is a JSON-ready
document (schema ``repro.profile/1``) stamped via an injectable
``now_fn`` — together with the benchmark-artifact stamp in
:mod:`repro.obs.schema`, one of the two REPRO001 wall-clock allowlist
entries (docs/LINT.md).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

#: The profile summary schema identifier.
PROFILE_SCHEMA = "repro.profile/1"

#: The scheduler step-loop phases, in step order.  Both engines run the
#: one loop in :meth:`repro.ioa.scheduler.Scheduler.run` and book the
#: same phases; only a compiled run books ``compile`` (lowering the
#: automaton, before the run starts), and only a closed run books
#: ``replay`` (repeating its cycle).  On the compiled engine ``apply``
#: includes a transition-table miss's interpreted apply, and
#: ``snapshot`` is booked only when a policy without a twin
#: (:mod:`repro.compiled.loop`) asks for one: the twins read the
#: snapshot tables inside ``policy``.
PHASES = (
    "stop-when",
    "snapshot",
    "policy",
    "apply",
    "chan-tick",
    "injection",
    "compile",
    "replay",
    "unattributed",
)


# ---------------------------------------------------------------------------
# Cache telemetry: process-global hit/miss/evict counters
# ---------------------------------------------------------------------------


class CacheCounter:
    """Hit/miss/evict tallies for one named memo.

    Hot paths increment the attributes directly (``counter.hits += 1``);
    the class exists to make those increments one attribute store, not a
    dictionary transaction.  ``evictions`` counts *entries dropped*, not
    drop events, so a cap-triggered clear of 65k entries reads as 65k.
    """

    __slots__ = ("name", "hits", "misses", "evictions")

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def probes(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per probe in [0, 1]; 0.0 when never probed."""
        probes = self.probes
        return self.hits / probes if probes else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 6),
            "hits": self.hits,
            "misses": self.misses,
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"CacheCounter({self.name!r}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


#: name -> the process-wide counter instance (create-on-first-use).
_CACHE_COUNTERS: Dict[str, CacheCounter] = {}


def cache_counter(name: str) -> CacheCounter:
    """The process-global counter for memo ``name``.

    Components fetch their counters once at construction and keep the
    reference, so :func:`reset_cache_stats` zeroes counters *in place*
    rather than replacing them.
    """
    counter = _CACHE_COUNTERS.get(name)
    if counter is None:
        counter = _CACHE_COUNTERS[name] = CacheCounter(name)
    return counter


def cache_stats_snapshot() -> Dict[str, Dict[str, int]]:
    """A sorted, JSON-ready snapshot of every cache counter."""
    return {
        name: _CACHE_COUNTERS[name].as_dict()
        for name in sorted(_CACHE_COUNTERS)
    }


def cache_stats_delta(
    before: Dict[str, Dict[str, Any]],
    after: Optional[Dict[str, Dict[str, Any]]] = None,
) -> Dict[str, Dict[str, Any]]:
    """``after - before`` per counter, with recomputed hit rates.

    ``after`` defaults to a fresh :func:`cache_stats_snapshot`.  Counters
    absent from ``before`` count from zero; counters with no probes in
    the window are dropped, so the delta names exactly the memos the
    window exercised.
    """
    if after is None:
        after = cache_stats_snapshot()
    delta: Dict[str, Dict[str, Any]] = {}
    for name in sorted(after):
        base = before.get(name, {})
        hits = after[name]["hits"] - base.get("hits", 0)
        misses = after[name]["misses"] - base.get("misses", 0)
        evictions = after[name]["evictions"] - base.get("evictions", 0)
        probes = hits + misses
        if probes == 0 and evictions == 0:
            continue
        delta[name] = {
            "evictions": evictions,
            "hit_rate": round(hits / probes, 6) if probes else 0.0,
            "hits": hits,
            "misses": misses,
        }
    return delta


def reset_cache_stats() -> None:
    """Zero every counter in place (existing references stay live)."""
    for counter in _CACHE_COUNTERS.values():
        counter.reset()


# ---------------------------------------------------------------------------
# The step profiler
# ---------------------------------------------------------------------------


class StepProfiler:
    """Per-phase accounting for scheduler runs (see the module docstring).

    Parameters
    ----------
    clock:
        The duration clock, read twice per phase.  Injectable so tests
        can replay a scripted clock; default ``time.perf_counter``
        (monotonic, not wall time, hence outside REPRO001's scope).
    now_fn:
        Supplies the summary's ``created_unix`` stamp — a genuine
        wall-clock read *about* the profiling moment, on the REPRO001
        allowlist and injectable for frozen-clock tests, mirroring
        :func:`repro.obs.schema.make_bench_artifact`.

    A profiler accumulates across runs until :meth:`reset`, so one
    instance can profile a whole sweep.  Attach it through a
    scheduler's ``instrument=`` (or ``System.run(instrument=...)``)::

        profiler = StepProfiler()
        Scheduler(instrument=profiler).run(automaton, max_steps=100)
        profiler.summary()["phases"]["apply"]["calls"]

    Examples
    --------
    >>> ticks = iter(range(100))
    >>> prof = StepProfiler(clock=lambda: float(next(ticks)))
    >>> t0 = prof.t()
    >>> prof.add("apply", prof.t() - t0)
    >>> prof.phase_calls["apply"], prof.phase_wall_s["apply"]
    (1, 1.0)
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        now_fn: Callable[[], float] = time.time,
    ):
        self.clock = clock
        self.now_fn = now_fn
        self.phase_calls: Dict[str, int] = {}
        self.phase_wall_s: Dict[str, float] = {}
        self.runs = 0
        self.steps = 0
        self.replayed = 0
        self.injections = 0
        self.states_touched = 0
        self._cache_base = cache_stats_snapshot()
        # Time covered by wrapped calls nested in the open wrapped call.
        self._nested = 0.0
        # The open run's start reading and the phase total booked before it.
        self._run_t0 = 0.0
        self._run_booked = 0.0

    # -- Recording (called from the scheduler's step loop) ----------------

    def t(self) -> float:
        """A reading of the injectable duration clock."""
        return self.clock()

    def add(self, phase: str, dur_s: float) -> None:
        """Account one timed call to ``phase``."""
        self.phase_calls[phase] = self.phase_calls.get(phase, 0) + 1
        self.phase_wall_s[phase] = self.phase_wall_s.get(phase, 0.0) + dur_s

    def timed(self, phase: str, fn: Callable) -> Callable:
        """``fn``, booking each call's *self* time under ``phase``.

        Time spent in wrapped calls nested inside ``fn`` is subtracted,
        so a policy whose ``choose`` reads a wrapped snapshot books the
        snapshot once, under ``snapshot``, and only the rest under
        ``policy``.

        >>> ticks = iter(range(100))
        >>> prof = StepProfiler(clock=lambda: float(next(ticks)))
        >>> inner = prof.timed("snapshot", lambda: None)
        >>> prof.timed("policy", lambda: inner())()
        >>> prof.phase_wall_s
        {'snapshot': 1.0, 'policy': 2.0}
        """
        clock = self.clock
        add = self.add

        def wrapper(*args, **kwargs):
            outer = self._nested
            self._nested = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                add(phase, dur - self._nested)
                self._nested = outer + dur

        return wrapper

    def open_run(self) -> None:
        """Open a run: the loop wall starts at this clock reading."""
        self.runs += 1
        self._run_booked = self.wall_s
        self._run_t0 = self.clock()

    def close_run(
        self, steps: int, injections: int, replayed: int = 0
    ) -> None:
        """Close the run opened by :meth:`open_run`, booking its
        wall time minus the phases booked inside it as ``unattributed``.

        ``steps`` counts the whole run; ``replayed`` of them repeated a
        closed run's cycle, so ``steps - replayed`` were executed."""
        wall = self.clock() - self._run_t0
        self.add("unattributed", wall - (self.wall_s - self._run_booked))
        self.steps += steps
        self.replayed += replayed
        self.injections += injections
        # Every step, replayed or not, adds one state to the execution
        # (plus the initial one per run, counted here so the tally is
        # exact, not off by #runs).
        self.states_touched += steps + 1

    def reset(self) -> None:
        """Forget everything recorded and re-base the cache window."""
        self.phase_calls = {}
        self.phase_wall_s = {}
        self.runs = 0
        self.steps = 0
        self.replayed = 0
        self.injections = 0
        self.states_touched = 0
        self._cache_base = cache_stats_snapshot()
        self._nested = 0.0

    # -- Export -----------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Total wall time across all phases."""
        return sum(self.phase_wall_s.values())

    def cache_stats(self) -> Dict[str, Dict[str, Any]]:
        """Cache activity since construction (or the last :meth:`reset`)."""
        return cache_stats_delta(self._cache_base)

    def summary(self, include_cache: bool = True) -> Dict[str, Any]:
        """The JSON-ready profile document (schema ``repro.profile/1``).

        Deterministic counts (``phases.*.calls``, ``counters``, the
        ``cache`` block) are separated from wall-clock fields
        (``phases.*.wall_s``, ``wall_s``) so consumers can diff the
        former byte-for-byte and band-check the latter.
        """
        doc: Dict[str, Any] = {
            "schema": PROFILE_SCHEMA,
            "created_unix": int(self.now_fn()),
            "counters": {
                "injections": self.injections,
                "replayed": self.replayed,
                "runs": self.runs,
                "states_touched": self.states_touched,
                "steps": self.steps,
            },
            "phases": {
                name: {
                    "calls": self.phase_calls[name],
                    "wall_s": round(self.phase_wall_s[name], 9),
                }
                for name in sorted(self.phase_calls)
            },
            "wall_s": round(self.wall_s, 9),
        }
        if include_cache:
            doc["cache"] = self.cache_stats()
        return doc

    def to_json(self, path: str, include_cache: bool = True) -> str:
        """Write :meth:`summary` to ``path``; returns the JSON text."""
        text = json.dumps(
            self.summary(include_cache=include_cache), indent=2, sort_keys=True
        )
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
        return text


# ---------------------------------------------------------------------------
# Profile document validation (CI checks the uploaded artifact)
# ---------------------------------------------------------------------------

_REQUIRED: Dict[str, type] = {
    "schema": str,
    "created_unix": (int, float),  # type: ignore[dict-item]
    "counters": dict,
    "phases": dict,
    "wall_s": (int, float),  # type: ignore[dict-item]
}


def validate_profile(doc: Any) -> List[str]:
    """All schema violations of a profile document (empty == valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"profile must be a JSON object, got {type(doc).__name__}"]
    for key, expected in _REQUIRED.items():
        if key not in doc:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(doc[key], expected):
            errors.append(
                f"key {key!r} must be "
                f"{getattr(expected, '__name__', expected)}, "
                f"got {type(doc[key]).__name__}"
            )
    if errors:
        return errors
    if doc["schema"] != PROFILE_SCHEMA:
        errors.append(
            f"unknown schema {doc['schema']!r} (expected {PROFILE_SCHEMA!r})"
        )
    for name, phase in doc["phases"].items():
        if not isinstance(phase, dict) or "calls" not in phase:
            errors.append(f"phases[{name!r}] must carry a 'calls' count")
    for name, value in doc["counters"].items():
        if not isinstance(value, int):
            errors.append(f"counters[{name!r}] must be an integer")
    cache = doc.get("cache")
    if cache is not None:
        if not isinstance(cache, dict):
            errors.append("cache must be an object")
        else:
            for name, stats in cache.items():
                if not isinstance(stats, dict) or not {
                    "hits",
                    "misses",
                }.issubset(stats):
                    errors.append(
                        f"cache[{name!r}] must carry hits/misses counts"
                    )
    return errors

"""`BatchRunner`: execute many specs, serially or across processes.

The runner is the multi-core lever for the repository's sweeps: every
seeded run described by an :class:`~repro.runner.spec.ExperimentSpec` is
independent, so a batch can fan out over ``multiprocessing`` workers
with no shared state — each worker rebuilds its run from the picklable
spec, which is exactly what makes the parallel results provably
identical to the serial ones (see ``tests/runner/test_determinism.py``).
A batch fans out only once its measured cost outgrows a fork pool's
(:data:`_BREAK_EVEN_S`); until then its items run in the caller.

Also home to :func:`parallel_map`, the deterministic ordered map the
benchmark kernels use for work that is not a single spec (tree builds,
closure checks, reduction validations): same fan-out, same
order-preservation, arbitrary picklable ``fn``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.runner.spec import ExperimentResult, ExperimentSpec, run_spec


def default_jobs() -> int:
    """The host's usable CPU count (affinity-aware where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _mp_context(name: Optional[str] = None):
    """Prefer fork (cheap, inherits sys.path); fall back to the default."""
    if name is not None:
        return multiprocessing.get_context(name)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Seconds of serial work a batch must still hold before a fork pool
#: beats running it in the caller.  Measured on a 2-core host with
#: ``Pool(2)`` over the benchmark's short specs (in-process medians):
#: the pool costs about 10 ms to create and 4 ms to close and join, and
#: a fresh fork runs the same items about 30% slower than the warm
#: parent (44.6 vs 34.0 ms of CPU for 4 specs).  Pool over serial wall
#: time read 2.45 at 2 specs, 1.47 at 4, 1.08 at 6, 0.91 at 12 and 0.77
#: at 24, so the pool breaks even between 60 and 90 ms of serial work;
#: 0.1 s sits just past that, where the pool is ahead.  Tests override
#: it (a negative value sends every item to the pool).
_BREAK_EVEN_S = 0.1


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int = 1,
    mp_context: Optional[str] = None,
) -> List[Any]:
    """``[fn(x) for x in items]``, fanned out over up to ``jobs`` processes.

    Order-preserving and deterministic: the result list matches the
    serial comprehension element-for-element regardless of where each
    item ran.  ``jobs`` is an upper bound: items run in the caller while
    the mean wall time of the items run so far, times the items left,
    stays at or under :data:`_BREAK_EVEN_S` (before the first item the
    estimate is 0; see its comment for the derivation).  Once it is
    over, the items left, two or more, go to a pool of
    ``min(jobs, left)`` workers with ``chunksize=1``, whose ordered
    results follow.  So a cheap batch never forks, and a costly one
    forks after its first item plus at most the break-even of serial
    work.

    With ``jobs > 1`` and two or more items, ``fn`` is pickled before
    anything runs, and each item before it runs in the caller: ``fn``
    and every item must be picklable (module-level functions; no
    closures), and a batch the pool could not carry fails the same way
    on either path.  ``jobs <= 1`` or fewer than two items
    short-circuits to the serial loop — no pool, no pickling
    requirement.
    """
    items = list(items)
    jobs = max(1, int(jobs))
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    ForkingPickler.dumps(fn)
    results: List[Any] = []
    spent = 0.0
    for done, item in enumerate(items):
        left = len(items) - done
        estimate = spent / done * left if done else 0.0
        if left >= 2 and estimate > _BREAK_EVEN_S:
            ctx = _mp_context(mp_context)
            with ctx.Pool(processes=min(jobs, left)) as pool:
                results.extend(pool.imap(fn, items[done:], chunksize=1))
            return results
        ForkingPickler.dumps(item)
        start = time.perf_counter()
        results.append(fn(item))
        spent += time.perf_counter() - start
    return results


def _execute_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Worker entry: run one spec, capturing failures into the result."""
    try:
        return run_spec(spec)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return ExperimentResult(
            label=spec.label,
            problem=spec.problem,
            seed=spec.seed,
            error=f"{type(exc).__name__}: {exc}",
        )


@dataclass
class BatchResult:
    """All results of one batch, plus how the batch ran.

    ``cache_hits``/``cache_misses`` partition the batch when a result
    cache was attached (``BatchRunner(cache=...)``); both stay 0 on
    uncached batches.
    """

    results: List[ExperimentResult] = field(default_factory=list)
    jobs: int = 1
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[ExperimentResult]:
        return [r for r in self.results if r.error is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_on_error(self) -> "BatchResult":
        if self.failures:
            first = self.failures[0]
            raise RuntimeError(
                f"{len(self.failures)}/{len(self.results)} runs failed; "
                f"first: [{first.label}] {first.error}"
            )
        return self

    def rows(self) -> List[List[Any]]:
        """One standard series row per run (label, seed, verdict, cost)."""
        return [r.row() for r in self.results]

    def to_bench_artifact(
        self,
        bench_id: str,
        title: str,
        header: Optional[Sequence[str]] = None,
        quick: bool = False,
    ) -> Dict[str, Any]:
        """The batch as a schema-valid ``repro.bench/1`` document."""
        from repro.obs.schema import make_bench_artifact

        return make_bench_artifact(
            bench_id=bench_id,
            title=title,
            rows=self.rows(),
            header=header or ["label", "seed", "solved", "steps", "messages"],
            timings={"batch_wall_s": self.wall_s},
            metrics={"jobs": self.jobs, "runs": len(self.results)},
            quick=quick,
        )


class BatchRunner:
    """Run experiment specs serially (``jobs=1``) or across processes.

    Per-run instrumentation is the spec's own ``instrument`` and
    ``profile`` flags: the recorder and profiler are built inside the
    run, since they cannot be shared across processes.

    Parameters
    ----------
    jobs:
        Upper bound on worker processes; ``1`` (default) runs
        in-process, ``0``/None means :func:`default_jobs` (the machine's
        usable cores).  Like :func:`parallel_map`, a batch runs in the
        caller until its measured cost outgrows a fork pool's
        (:data:`_BREAK_EVEN_S`), so a cheap batch never forks; results
        are the same either way.
    cache:
        A content-addressed result cache: a
        :class:`~repro.cache.store.ResultStore` or its directory path.
        The batch partitions into hits (served from the store — zero
        kernel executions) and misses (executed, then published back),
        reassembled in spec order; by the determinism contract the
        results are byte-identical to an uncached batch.  Failed runs
        are never cached, and instrumented/profiled specs bypass the
        cache entirely (:func:`repro.cache.store.cacheable`).
    mp_context:
        Explicit multiprocessing start method (``"fork"``/``"spawn"``);
        default picks fork where available.

    Examples
    --------
    >>> from repro.runner import ExperimentSpec, BatchRunner
    >>> spec = ExperimentSpec(
    ...     detector="omega", locations=(0, 1, 2), problem="detector-trace",
    ...     max_steps=30)
    >>> batch = BatchRunner(jobs=1).run([spec])
    >>> batch.results[0].fd_ok
    True
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache=None,
        mp_context: Optional[str] = None,
    ):
        self.jobs = default_jobs() if not jobs else max(1, int(jobs))
        self.mp_context = mp_context
        self.cache = self._coerce_cache(cache)

    @staticmethod
    def _coerce_cache(cache):
        if cache is None:
            return None
        from repro.cache.store import ResultStore

        if isinstance(cache, ResultStore):
            return cache
        return ResultStore(str(cache))

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        raise_on_error: bool = False,
    ) -> BatchResult:
        """Execute every spec; results come back in spec order.

        In-run exceptions are captured per-result (``result.error``)
        unless ``raise_on_error`` is set.  With a cache attached, only
        the store misses execute; hits are served from the store and the
        batch is reassembled in spec order either way.
        """
        specs = list(specs)
        start = time.perf_counter()
        hit_results: Dict[int, ExperimentResult] = {}
        storable: List[bool] = []
        if self.cache is not None:
            from repro.cache.store import cacheable

            storable = [cacheable(spec) for spec in specs]
            for k, spec in enumerate(specs):
                hit = self.cache.get(spec) if storable[k] else None
                if hit is not None:
                    hit_results[k] = hit
        miss_indexed = [
            (k, spec)
            for k, spec in enumerate(specs)
            if k not in hit_results
        ]
        miss_specs = [spec for _, spec in miss_indexed]
        executed = parallel_map(
            _execute_spec,
            miss_specs,
            jobs=self.jobs,
            mp_context=self.mp_context,
        )
        if self.cache is not None:
            for (k, spec), result in zip(miss_indexed, executed):
                if (
                    storable[k]
                    and result.error is None
                    and result.run is None
                ):
                    self.cache.put(spec, result)
        miss_iter = iter(executed)
        results = [
            hit_results[k] if k in hit_results else next(miss_iter)
            for k in range(len(specs))
        ]
        batch = BatchResult(
            results=results,
            jobs=self.jobs,
            wall_s=time.perf_counter() - start,
            cache_hits=len(hit_results),
            cache_misses=len(miss_specs) if self.cache is not None else 0,
        )
        if raise_on_error:
            batch.raise_on_error()
        return batch

    def map(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """:func:`parallel_map` with this runner's jobs/context."""
        return parallel_map(
            fn, items, jobs=self.jobs, mp_context=self.mp_context
        )

"""Content-addressed result caching.

:mod:`repro.cache.store`
    :class:`ResultStore` — an on-disk store of pickled
    ``ExperimentResult`` objects keyed by the SHA-256 of the spec's run
    identity (``spec.meta()``, hashed by ``spec_digest``), with integrity
    digests, atomic writes, and automatic version/engine invalidation.
    Wired into the engine as ``BatchRunner(cache=...)``: a batch
    partitions into hits/misses, executes only the misses, and
    reassembles in spec order.

The byte-identity contract's third leg lives here: cached-vs-recomputed
results are byte-identical (``tests/cache/``, CI job ``cache-smoke``),
alongside the existing serial-vs-parallel and interpreted-vs-compiled
legs.  See ``docs/CACHE.md``.
"""

from repro.cache.store import (
    CACHE_SCHEMA,
    ENGINE_REVISION,
    ResultStore,
    cacheable,
)

__all__ = [
    "CACHE_SCHEMA",
    "ENGINE_REVISION",
    "ResultStore",
    "cacheable",
]

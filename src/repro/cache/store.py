"""The content-addressed result store: never run the same spec twice.

The atlas/chaos workloads are "millions of runs" sweeps, and every run
is a pure function of its :class:`~repro.runner.spec.ExperimentSpec`
(the engine's determinism contract).  That makes results cacheable by
*content address*: the store keys each
:class:`~repro.runner.spec.ExperimentResult` by
``sha256(canonical_json(spec.meta()))`` — the spec's derived run
identity (:func:`repro.runner.spec.spec_digest`) — so a re-run, a CI
sweep, or another worker machine sharing the store directory only
executes cells it has never seen.

Store layout (``docs/CACHE.md``)::

    STORE_DIR/
      objects/<hh>/<64-hex>.pkl    # hh = first two hex digits of the key

Each object file is the pickle of one *entry* dict::

    {"schema": "repro.cache/1",
     "key": "sha256:<hex>",          # digest of the identity below
     "identity": {...},              # the canonical JSON-ready preimage
     "repro_version": "1.10.0",
     "engine": "step-loop/1",
     "payload_sha256": "sha256:<hex>",  # digest of the payload bytes
     "payload": b"..."}              # the pickled result, verbatim

``payload_sha256`` is the integrity digest: a torn write, bit rot, or a
hand-edited file reads back as a *miss* (and is evicted), never as a
silently wrong result.  Entries are written atomically (temp file +
``os.replace``), so any number of worker processes — or machines over a
shared filesystem — can populate one store concurrently.

Invalidation is spec-level and automatic:

* the key *is* the spec's run identity, derived from every field that is
  not instrumentation or the engine flag, so changing any
  behavior-determining field (seed, detector kwargs, fault plan, step
  budget, ...) is a new cell;
* entries record the library version and the engine revision that
  produced them; a store read by a different ``repro_version`` (or after
  an intentional :data:`ENGINE_REVISION` bump) treats the stale entries
  as misses and evicts them.

Hit/miss/evict traffic flows through the existing cache telemetry
(:func:`repro.obs.prof.cache_counter`, name ``store.results``), so
profiles report store behavior exactly like the hot-path memos.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.obs.prof import CacheCounter, cache_counter
from repro.runner.spec import INSTRUMENTATION, digest, spec_digest

#: The store entry schema identifier.
CACHE_SCHEMA = "repro.cache/1"

#: The execution-engine revision recorded in every entry.  Bump this
#: when an engine change is *intended* to produce different results for
#: unchanged specs (it never has so far: the compiled and interpreted
#: engines are byte-identical twins, which is why the engine tag is one
#: revision string rather than an engine name).
ENGINE_REVISION = "step-loop/1"

#: The telemetry name store probes are booked under.
STORE_COUNTER = "store.results"


def cacheable(spec: Any) -> bool:
    """Whether ``spec``'s result may be served from / stored in a cache.

    The trace and profile flags are in no key (tracing and profiling
    never change executions), so an instrumented spec and its plain twin
    share a key.  Serving a plain cached result to a run that asked for a
    trace/profile would silently drop the requested observability —
    instrumented specs therefore bypass the cache in both directions and
    always execute.  So do specs holding an opaque value (an instance, a
    lambda, a ``partial``): its key names it by ``id``, which another
    process may reuse for something else.
    """
    return not any(
        getattr(spec, f.name)
        for f in dataclasses.fields(spec)
        if f.metadata.get("key") == INSTRUMENTATION
    ) and not spec.opaque_values()


class ResultStore:
    """An on-disk content-addressed store of pickled experiment results.

    Parameters
    ----------
    root:
        The store directory; created lazily on first write.
    repro_version / engine:
        The provenance pair stamped into written entries and demanded of
        read ones (defaults: the library's ``__version__`` and
        :data:`ENGINE_REVISION`).  A mismatched entry reads as a miss
        and is evicted — stale results never leak across versions.

    Examples
    --------
    >>> import tempfile
    >>> from repro.runner import ExperimentSpec
    >>> spec = ExperimentSpec(detector="omega", locations=(0, 1, 2),
    ...                       problem="detector-trace", max_steps=40)
    >>> store = ResultStore(tempfile.mkdtemp())
    >>> store.get(spec) is None
    True
    >>> key = store.put(spec, spec.run())
    >>> store.get(spec).fd_ok
    True
    """

    def __init__(
        self,
        root: str,
        repro_version: Optional[str] = None,
        engine: str = ENGINE_REVISION,
    ):
        self.root = str(root)
        self.repro_version = repro_version or __version__
        self.engine = engine
        self.counter: CacheCounter = cache_counter(STORE_COUNTER)

    # -- Layout -----------------------------------------------------------

    def object_path(self, key: str) -> str:
        """The object file holding ``key`` (``sha256:<hex>``)."""
        hexdigest = key.split(":", 1)[1]
        return os.path.join(
            self.root, "objects", hexdigest[:2], hexdigest + ".pkl"
        )

    def key_for(self, spec: Any) -> str:
        """The content address of one spec: ``digest(spec.meta())``."""
        return spec_digest(spec)

    # -- Generic object layer --------------------------------------------

    def put_object(self, identity: Dict[str, Any], payload: Any) -> str:
        """Store ``payload`` under ``digest(identity)``; returns the key.

        ``identity`` must be the canonical JSON-ready preimage of the
        key (a spec's ``meta()``, a bench identity, ...).  The write is
        atomic: concurrent writers of the same key are safe, last writer
        wins with identical content by construction.
        """
        key = digest(identity)
        payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "identity": identity,
            "repro_version": self.repro_version,
            "engine": self.engine,
            "payload_sha256": "sha256:"
            + hashlib.sha256(payload_bytes).hexdigest(),
            "payload": payload_bytes,
        }
        path = self.object_path(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fp:
                fp.write(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        return key

    def get_object(self, key: str) -> Optional[Any]:
        """The payload stored under ``key``, or ``None`` (a miss).

        Every probe is booked on the ``store.results`` cache counter.
        Corrupted, stale-version, and stale-engine entries are evicted
        (deleted and counted) and read as misses — the store self-heals
        rather than serving doubtful bytes.
        """
        entry = self._load_entry(key)
        if entry is None:
            self.counter.misses += 1
            return None
        problems = self._entry_problems(key, entry)
        if problems:
            self._evict(key)
            self.counter.misses += 1
            return None
        self.counter.hits += 1
        return pickle.loads(entry["payload"])

    def has(self, key: str) -> bool:
        """Whether ``key`` resolves to a valid, current entry (no
        counter traffic, no eviction)."""
        entry = self._load_entry(key)
        return entry is not None and not self._entry_problems(key, entry)

    # -- Spec layer -------------------------------------------------------

    def put(self, spec: Any, result: Any) -> str:
        """Store one executed spec's result; returns its key."""
        return self.put_object(spec.meta(), result)

    def get(self, spec: Any) -> Optional[Any]:
        """The cached :class:`ExperimentResult` for ``spec``, or ``None``."""
        return self.get_object(self.key_for(spec))

    # -- Maintenance ------------------------------------------------------

    def keys(self) -> List[str]:
        """Every stored key, sorted (valid or not — see :meth:`verify`)."""
        objects = os.path.join(self.root, "objects")
        found: List[str] = []
        try:
            prefixes = sorted(os.listdir(objects))
        except OSError:
            return []
        for prefix in prefixes:
            bucket = os.path.join(objects, prefix)
            try:
                names = sorted(os.listdir(bucket))
            except OSError:
                continue
            found.extend(
                "sha256:" + name[: -len(".pkl")]
                for name in names
                if name.endswith(".pkl")
            )
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def verify(self) -> List[str]:
        """Integrity problems across the whole store (empty == clean).

        Unlike :meth:`get_object`, verification neither evicts nor
        counts — it is the inspection tool, not the read path.
        """
        problems: List[str] = []
        for key in self.keys():
            entry = self._load_entry(key)
            if entry is None:
                problems.append(f"{key}: unreadable object file")
                continue
            problems.extend(
                f"{key}: {problem}"
                for problem in self._entry_problems(key, entry)
            )
        return problems

    def stats(self) -> Dict[str, Any]:
        """The process-wide ``store.results`` counter as a dict."""
        return self.counter.as_dict()

    # -- Internals --------------------------------------------------------

    def _load_entry(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.object_path(key), "rb") as fp:
                entry = pickle.load(fp)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def _entry_problems(self, key: str, entry: Dict[str, Any]) -> List[str]:
        problems: List[str] = []
        if entry.get("schema") != CACHE_SCHEMA:
            problems.append(
                f"unknown schema {entry.get('schema')!r} "
                f"(expected {CACHE_SCHEMA!r})"
            )
            return problems
        if entry.get("repro_version") != self.repro_version:
            problems.append(
                f"stale repro_version {entry.get('repro_version')!r} "
                f"(store reader is {self.repro_version!r})"
            )
        if entry.get("engine") != self.engine:
            problems.append(
                f"stale engine {entry.get('engine')!r} "
                f"(store reader is {self.engine!r})"
            )
        identity = entry.get("identity")
        if not isinstance(identity, dict) or digest(identity) != key:
            problems.append("identity does not hash to the object's key")
        payload = entry.get("payload")
        if not isinstance(payload, bytes):
            problems.append("payload missing or not bytes")
        else:
            actual = "sha256:" + hashlib.sha256(payload).hexdigest()
            if actual != entry.get("payload_sha256"):
                problems.append(
                    "payload bytes do not match the integrity digest "
                    "(torn write or corruption)"
                )
        return problems

    def _evict(self, key: str) -> None:
        try:
            os.unlink(self.object_path(key))
        except OSError:
            return
        self.counter.evictions += 1

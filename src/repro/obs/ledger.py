"""The content-addressed run ledger: what ran, from what, producing what.

The ROADMAP's result-cache item needs a stable answer to "have we already
executed this exact experiment?".  This module supplies the key and the
book: every recorded run is a JSON object *keyed by the SHA-256 of its
canonical serialized identity* — for an
:class:`~repro.runner.spec.ExperimentSpec`, its run identity
(:meth:`~repro.runner.spec.ExperimentSpec.meta`, hashed by
:func:`spec_digest`); for a benchmark, its ``(bench_id, quick, title)``
identity — and appended to an on-disk JSONL ledger
(:class:`RunLedger`).  Append-only is the point: re-running the same spec
appends a second entry under the same key, so drift between entries that
share a key is *evidence* (an engine change, a flaky environment), not a
merge conflict.

Each entry carries:

``key``
    The content address (``sha256:...`` of the canonical identity).
``kind`` / ``spec`` or ``bench``
    What ran, as canonical JSON-ready data (the preimage of ``key``).
``repro_version`` / ``seed`` / ``fault_plan``
    Provenance: library version, the run seed, and the *bound* fault
    plan's key encoding when one was attached (binding is part of
    reproducibility).
``profile``
    The ``repro.profile/1`` summary when the run was profiled.
``artifacts``
    Named output digests — whole-file SHA-256 plus, for benchmark
    artifacts, the :func:`series_digest` (the digest of the
    *deterministic* series content only, excluding timings/environment/
    stamps).  Two runs agree iff their series digests agree; the file
    digests will differ whenever wall time does.
``created_unix``
    Stamped via an injectable ``now_fn`` (REPRO001 allowlist, mirroring
    :func:`repro.obs.schema.make_bench_artifact`).

Validate a ledger file with ``python -m repro.obs.ledger LEDGER.jsonl``;
add ``--list`` for a key/kind/seed table.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import __version__

#: The ledger entry schema identifier.
LEDGER_SCHEMA = "repro.ledger/1"

#: Keys every ledger entry must carry, with their required types.
_REQUIRED: Dict[str, type] = {
    "schema": str,
    "key": str,
    "kind": str,
    "repro_version": str,
    "created_unix": (int, float),  # type: ignore[dict-item]
}

_KINDS = ("spec-run", "bench")


# ---------------------------------------------------------------------------
# Canonicalization and digests
# ---------------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """The canonical serialization digests are computed over.

    Sorted keys, no whitespace, no NaN — byte-identical for equal values
    regardless of construction order, which is what makes the SHA-256 a
    *content* address.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def digest(obj: Any) -> str:
    """``sha256:<hex>`` of the canonical JSON of ``obj``."""
    text = canonical_json(obj)
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str) -> Dict[str, Any]:
    """Whole-file SHA-256 and byte size of ``path``."""
    hasher = hashlib.sha256()
    size = 0
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 16), b""):
            hasher.update(chunk)
            size += len(chunk)
    return {"sha256": "sha256:" + hasher.hexdigest(), "bytes": size}


def series_digest(doc: Dict[str, Any]) -> str:
    """The digest of a bench artifact's *deterministic* content.

    Covers ``(bench_id, quick, series)`` only — the parts the engine's
    determinism contract pins — and deliberately excludes timings,
    environment and the ``created_unix`` stamp.  Equal series digests
    mean byte-identical measured rows; this is the equality the BENCH
    drift comparator (:mod:`repro.obs.compare`) and the future sweep
    cache key off.
    """
    return digest(
        {
            "bench_id": doc.get("bench_id"),
            "quick": doc.get("quick"),
            "series": doc.get("series"),
        }
    )


def spec_digest(spec: Any) -> str:
    """The content address of one spec: ``digest(spec.meta())``.

    ``meta()`` is the spec's run identity, derived field by field
    (:func:`repro.runner.spec.encode_key`); the result store and the
    run ledger both key on this digest.
    """
    return digest(spec.meta())


def bench_identity(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The keyed identity of a bench artifact: what was measured, not
    what it measured."""
    return {
        "bench_id": doc.get("bench_id"),
        "quick": doc.get("quick"),
        "title": doc.get("title"),
    }


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def make_ledger_entry(
    kind: str,
    identity: Dict[str, Any],
    seed: Optional[int] = None,
    fault_plan: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    artifacts: Optional[Dict[str, Dict[str, Any]]] = None,
    extra: Optional[Dict[str, Any]] = None,
    now_fn: Callable[[], float] = time.time,
) -> Dict[str, Any]:
    """Build one schema-conforming ledger entry.

    ``identity`` is the canonical preimage of the entry's ``key`` (a
    spec's ``meta()`` or a bench identity).  ``now_fn`` supplies the
    ``created_unix`` stamp — a wall-clock read *about* the recording
    moment, injectable for frozen-clock tests and on the REPRO001
    allowlist.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown ledger kind {kind!r}; supported: {_KINDS}")
    entry: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "key": digest(identity),
        "kind": kind,
        "repro_version": __version__,
        "created_unix": int(now_fn()),
        ("spec" if kind == "spec-run" else "bench"): identity,
    }
    if seed is not None:
        entry["seed"] = seed
    if fault_plan is not None:
        entry["fault_plan"] = fault_plan
    if profile is not None:
        entry["profile"] = profile
    if artifacts:
        entry["artifacts"] = artifacts
    if extra:
        entry.update(extra)
    return entry


def validate_ledger_entry(doc: Any) -> List[str]:
    """All schema violations of one ledger entry (empty == valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"entry must be a JSON object, got {type(doc).__name__}"]
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
    if doc["schema"] != LEDGER_SCHEMA:
        errors.append(
            f"unknown schema {doc['schema']!r} (expected {LEDGER_SCHEMA!r})"
        )
    if doc["kind"] not in _KINDS:
        errors.append(f"unknown kind {doc['kind']!r}; supported: {_KINDS}")
    identity_key = "spec" if doc["kind"] == "spec-run" else "bench"
    identity = doc.get(identity_key)
    if not isinstance(identity, dict):
        errors.append(f"kind {doc['kind']!r} requires a {identity_key!r} object")
    elif doc["key"] != digest(identity):
        errors.append(
            f"key {doc['key']!r} does not match digest of {identity_key!r} "
            "(corrupted or hand-edited entry)"
        )
    artifacts = doc.get("artifacts")
    if artifacts is not None:
        if not isinstance(artifacts, dict):
            errors.append("artifacts must be an object")
        else:
            for name, info in artifacts.items():
                if not isinstance(info, dict) or "sha256" not in info:
                    errors.append(
                        f"artifacts[{name!r}] must carry a 'sha256' digest"
                    )
    return errors


# ---------------------------------------------------------------------------
# The on-disk ledger
# ---------------------------------------------------------------------------


class RunLedger:
    """An append-only JSONL ledger of content-addressed run records.

    Parameters
    ----------
    path:
        The ledger file; created (with parent directories) on first
        append.  One JSON entry per line.
    now_fn:
        The ``created_unix`` source for entries recorded through this
        ledger (injectable; REPRO001 allowlist).

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "LEDGER.jsonl")
    >>> ledger = RunLedger(path, now_fn=lambda: 1754500000.0)
    >>> entry = ledger.record_bench({"bench_id": "e0", "quick": False,
    ...                              "title": "t", "series": {"rows": []}})
    >>> [e["kind"] for e in ledger.entries()]
    ['bench']
    >>> ledger.lookup(entry["key"])[0]["bench"]["bench_id"]
    'e0'
    """

    def __init__(
        self, path: str, now_fn: Callable[[], float] = time.time
    ):
        self.path = str(path)
        self.now_fn = now_fn

    # -- Writing ----------------------------------------------------------

    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and append one entry; returns it."""
        errors = validate_ledger_entry(entry)
        if errors:
            raise ValueError(
                "refusing to append invalid ledger entry: " + "; ".join(errors)
            )
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fp:
            fp.write(canonical_json(entry) + "\n")
        return entry

    def record_spec_run(
        self,
        spec: Any,
        result: Any = None,
        profile: Optional[Dict[str, Any]] = None,
        artifacts: Optional[Dict[str, str]] = None,
    ) -> Dict[str, Any]:
        """Record one executed :class:`~repro.runner.spec.ExperimentSpec`.

        ``artifacts`` maps names to file paths; each is digested.  When
        ``result`` is given, its deterministic outcome fields (solved,
        steps, messages) ride along as ``outcome`` — wall time does not.
        ``profile`` defaults to ``result.profile`` when present.
        """
        from repro.runner.spec import encode_key

        plan = spec.resolve_fault_plan()
        extra: Dict[str, Any] = {}
        if result is not None:
            extra["outcome"] = {
                "solved": result.solved,
                "fd_ok": result.fd_ok,
                "steps": result.steps,
                "messages_sent": result.messages_sent,
            }
            if profile is None:
                profile = result.profile
        entry = make_ledger_entry(
            kind="spec-run",
            identity=spec.meta(),
            seed=spec.seed,
            fault_plan=encode_key(plan) if plan is not None else None,
            profile=profile,
            artifacts={
                name: file_digest(path)
                for name, path in (artifacts or {}).items()
            },
            extra=extra,
            now_fn=self.now_fn,
        )
        return self.append(entry)

    def record_bench(
        self,
        doc: Dict[str, Any],
        path: Optional[str] = None,
        profile: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Record one benchmark artifact document.

        The entry's artifacts carry both the whole-file digest (when
        ``path`` is given) and the series digest of ``doc`` — the
        deterministic half future runs are compared against.
        """
        artifacts: Dict[str, Dict[str, Any]] = {
            "series": {"sha256": series_digest(doc)}
        }
        if path is not None:
            artifacts["file"] = file_digest(path)
        entry = make_ledger_entry(
            kind="bench",
            identity=bench_identity(doc),
            profile=profile,
            artifacts=artifacts,
            extra={"timings": doc.get("timings", {})},
            now_fn=self.now_fn,
        )
        return self.append(entry)

    # -- Reading ----------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """All parseable entries, in append order.

        A missing file reads as empty; a truncated final line (killed
        writer) is skipped rather than fatal — the ledger is a log.
        """
        out: List[Dict[str, Any]] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fp:
                for line in fp:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(doc, dict):
                        out.append(doc)
        except OSError:
            return []
        return out

    def lookup(self, key: str) -> List[Dict[str, Any]]:
        """Every entry recorded under ``key``, oldest first."""
        return [e for e in self.entries() if e.get("key") == key]

    def has(self, key: str) -> bool:
        return bool(self.lookup(key))

    def validate(self) -> List[str]:
        """Schema violations across the whole file (line-prefixed)."""
        errors: List[str] = []
        try:
            with open(self.path, "r", encoding="utf-8") as fp:
                lines = fp.readlines()
        except OSError as exc:
            return [f"{self.path}: unreadable ledger: {exc}"]
        for k, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {k}: not JSON: {exc}")
                continue
            for error in validate_ledger_entry(doc):
                errors.append(f"line {k}: {error}")
        return errors


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.obs.ledger LEDGER.jsonl [--list]``.

    Validates every entry (exit 1 on violations); ``--list`` also prints
    a key/kind/seed table of the valid entries.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    list_entries = "--list" in args
    paths = [a for a in args if a != "--list"]
    if len(paths) != 1:
        print(
            "usage: python -m repro.obs.ledger LEDGER.jsonl [--list]",
            file=sys.stderr,
        )
        return 2
    ledger = RunLedger(paths[0])
    errors = ledger.validate()
    for error in errors:
        print(f"{paths[0]}: {error}", file=sys.stderr)
    if list_entries:
        for entry in ledger.entries():
            ident = entry.get("spec") or entry.get("bench") or {}
            label = ident.get("label") or ident.get("bench_id") or "?"
            print(
                f"{entry.get('key', '?')[:19]}  {entry.get('kind', '?'):8s}  "
                f"seed={entry.get('seed', '-')}  {label}"
            )
    if not errors:
        print(f"{paths[0]}: ok ({len(ledger.entries())} entries)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

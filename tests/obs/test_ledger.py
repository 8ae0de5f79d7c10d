"""The content-addressed run ledger: digests, fingerprints, the JSONL book."""

from __future__ import annotations

import json

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    bench_identity,
    canonical_json,
    digest,
    file_digest,
    main,
    make_ledger_entry,
    series_digest,
    spec_digest,
    validate_ledger_entry,
)
from repro.runner import ExperimentSpec, run_spec

LOCS = (0, 1, 2)
NOW = lambda: 1754500000.0  # noqa: E731 - frozen clock for every entry


def consensus_spec(**overrides):
    base = dict(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        crashes={0: 10},
        f=1,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def bench_doc(**overrides):
    doc = {
        "bench_id": "e99",
        "title": "test bench",
        "quick": True,
        "series": {"header": ["n", "steps"], "rows": [[3, 40], [5, 90]]},
        "timings": {"kernel_wall_s": 0.25},
        "created_unix": 1754500000,
        "environment": {"python": "3.x"},
    }
    doc.update(overrides)
    return doc


class TestDigests:
    def test_canonical_json_is_order_free(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_digest_prefix_and_stability(self):
        d = digest({"x": 1})
        assert d.startswith("sha256:") and len(d) == 7 + 64
        assert d == digest({"x": 1})
        assert d != digest({"x": 2})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_file_digest(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc")
        info = file_digest(str(path))
        assert info["bytes"] == 3
        assert info["sha256"].startswith("sha256:")

    def test_series_digest_ignores_the_measured_half(self):
        a = bench_doc()
        b = bench_doc(
            timings={"kernel_wall_s": 9.9},
            created_unix=1,
            environment={"python": "other"},
        )
        assert series_digest(a) == series_digest(b)

    def test_series_digest_sees_series_and_quick(self):
        base = series_digest(bench_doc())
        assert base != series_digest(
            bench_doc(series={"header": ["n", "steps"], "rows": [[3, 41]]})
        )
        assert base != series_digest(bench_doc(quick=False))


class TestSpecFingerprint:
    def test_equal_specs_share_an_address(self):
        assert spec_digest(consensus_spec()) == spec_digest(consensus_spec())

    def test_instrumentation_flags_do_not_change_the_address(self):
        plain = spec_digest(consensus_spec())
        assert plain == spec_digest(consensus_spec(instrument=True))
        assert plain == spec_digest(consensus_spec(profile=True))

    def test_behavior_fields_change_the_address(self):
        plain = spec_digest(consensus_spec())
        assert plain != spec_digest(consensus_spec(seed=8))
        assert plain != spec_digest(consensus_spec(crashes={1: 10}))

    def test_fingerprint_is_json_canonicalizable(self):
        fp = consensus_spec().meta()
        canonical_json(fp)  # must not raise
        assert fp["algorithm"]
        assert fp["seed"] == 7


class TestEntries:
    def test_well_formed_entry_validates(self):
        entry = make_ledger_entry(
            "bench", bench_identity(bench_doc()), now_fn=NOW
        )
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["created_unix"] == 1754500000
        assert entry["key"] == digest(bench_identity(bench_doc()))
        assert validate_ledger_entry(entry) == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            make_ledger_entry("mystery", {"x": 1})

    def test_tampered_key_detected(self):
        entry = make_ledger_entry(
            "bench", bench_identity(bench_doc()), now_fn=NOW
        )
        entry["bench"]["title"] = "edited after the fact"
        assert any("digest" in e for e in validate_ledger_entry(entry))

    def test_artifacts_must_carry_digests(self):
        entry = make_ledger_entry(
            "bench",
            bench_identity(bench_doc()),
            artifacts={"series": {"note": "no digest"}},
            now_fn=NOW,
        )
        assert validate_ledger_entry(entry) != []

    def test_non_dict_rejected(self):
        assert validate_ledger_entry([1]) != []


class TestRunLedger:
    def test_bench_round_trip(self, tmp_path):
        path = tmp_path / "sub" / "LEDGER.jsonl"  # parent dirs created
        ledger = RunLedger(str(path), now_fn=NOW)
        entry = ledger.record_bench(bench_doc())
        assert ledger.validate() == []
        assert ledger.has(entry["key"])
        [stored] = ledger.lookup(entry["key"])
        assert stored["artifacts"]["series"]["sha256"] == series_digest(
            bench_doc()
        )
        assert stored["timings"] == {"kernel_wall_s": 0.25}

    def test_spec_run_records_outcome_and_key(self, tmp_path):
        spec = consensus_spec(profile=True)
        result = run_spec(spec)
        ledger = RunLedger(str(tmp_path / "LEDGER.jsonl"), now_fn=NOW)
        entry = ledger.record_spec_run(spec, result)
        assert entry["key"] == spec_digest(spec)
        assert entry["seed"] == 7
        assert entry["outcome"]["solved"] is True
        assert entry["outcome"]["steps"] == result.steps
        # profile defaults to result.profile when the run was profiled
        assert entry["profile"]["counters"]["steps"] == result.steps
        assert ledger.validate() == []

    def test_append_only_same_key_twice(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "LEDGER.jsonl"), now_fn=NOW)
        ledger.record_bench(bench_doc())
        ledger.record_bench(bench_doc())
        key = digest(bench_identity(bench_doc()))
        assert len(ledger.lookup(key)) == 2

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "nope.jsonl"))
        assert ledger.entries() == []
        assert not ledger.has("sha256:0")

    def test_truncated_final_line_tolerated_but_flagged(self, tmp_path):
        path = tmp_path / "LEDGER.jsonl"
        ledger = RunLedger(str(path), now_fn=NOW)
        ledger.record_bench(bench_doc())
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"schema": "repro.led')  # killed writer
        assert len(ledger.entries()) == 1  # the log still reads
        assert any("line 2" in e for e in ledger.validate())

    def test_invalid_entry_refused_at_append(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "LEDGER.jsonl"))
        with pytest.raises(ValueError, match="invalid ledger entry"):
            ledger.append({"schema": LEDGER_SCHEMA})


class TestCLI:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "LEDGER.jsonl"
        RunLedger(str(path), now_fn=NOW).record_bench(bench_doc())
        assert main([str(path)]) == 0
        assert "ok (1 entries)" in capsys.readouterr().out

    def test_list_prints_key_table(self, tmp_path, capsys):
        path = tmp_path / "LEDGER.jsonl"
        RunLedger(str(path), now_fn=NOW).record_bench(bench_doc())
        assert main([str(path), "--list"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out and "e99" in out

    def test_corrupt_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "LEDGER.jsonl"
        path.write_text(json.dumps({"schema": "wrong"}) + "\n")
        assert main([str(path)]) == 1

    def test_usage_error_exits_two(self):
        assert main([]) == 2
        assert main(["a.jsonl", "b.jsonl"]) == 2

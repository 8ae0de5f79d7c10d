"""The BENCH_*.json artifact schema: construction and validation."""

import json
import subprocess

from repro.obs import schema
from repro.obs.schema import (
    BENCH_SCHEMA,
    environment_info,
    jsonify_cell,
    make_bench_artifact,
    main,
    validate_bench_artifact,
    validate_bench_file,
)


def artifact(**overrides):
    doc = make_bench_artifact(
        bench_id="e99",
        title="test bench",
        rows=[("a", 1, True), ("b", 2, False)],
        header=("label", "value", "ok"),
        timings={"kernel_wall_s": 0.25},
        quick=True,
    )
    doc.update(overrides)
    return doc


class TestMakeArtifact:
    def test_well_formed(self):
        doc = artifact()
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["bench_id"] == "e99"
        assert doc["quick"] is True
        assert doc["series"]["header"] == ["label", "value", "ok"]
        assert doc["series"]["rows"] == [["a", 1, True], ["b", 2, False]]
        assert doc["timings"] == {"kernel_wall_s": 0.25}
        assert "python" in doc["environment"]
        assert validate_bench_artifact(doc) == []
        json.dumps(doc)  # JSON-serializable as-is

    def test_jsonify_cell_coercions(self):
        assert jsonify_cell(1) == 1
        assert jsonify_cell("x") == "x"
        assert jsonify_cell(None) is None
        assert jsonify_cell((0, 1)) == [0, 1]
        assert jsonify_cell({0: 1}) == {"0": 1}
        assert jsonify_cell({2, 1}) == [1, 2]

        class Opaque:
            def __str__(self):
                return "opaque"

        assert jsonify_cell(Opaque()) == "opaque"

    def test_environment_info_keys(self):
        env = environment_info()
        assert set(env) >= {"python", "platform"}

    def test_environment_is_probed_once_and_copied(self, monkeypatch):
        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="abc1234\n")

        monkeypatch.setattr(schema.subprocess, "run", fake_run)
        schema._environment_probe.cache_clear()
        try:
            first = environment_info()
            first["git_sha"] = "edited"
            second = environment_info()
            assert second["git_sha"] == "abc1234"
            assert second is not environment_info()
            assert len(calls) == 1
        finally:
            schema._environment_probe.cache_clear()

    def test_now_fn_injects_the_creation_stamp(self):
        doc = make_bench_artifact(
            bench_id="e99",
            title="frozen clock",
            rows=[("a", 1)],
            header=("label", "value"),
            now_fn=lambda: 1234.9,
        )
        assert doc["created_unix"] == 1234
        assert validate_bench_artifact(doc) == []

    def test_now_fn_defaults_to_wall_clock(self):
        import time

        before = int(time.time())
        doc = artifact()
        assert before <= doc["created_unix"] <= int(time.time())


class TestValidation:
    def test_missing_key(self):
        doc = artifact()
        del doc["series"]
        assert any("series" in e for e in validate_bench_artifact(doc))

    def test_wrong_schema_tag(self):
        errors = validate_bench_artifact(artifact(schema="other/9"))
        assert errors

    def test_non_dict(self):
        assert validate_bench_artifact([1, 2]) != []

    def test_non_list_row_rejected(self):
        doc = artifact()
        doc["series"]["rows"] = [["a", 1, True], "not-a-row"]
        assert validate_bench_artifact(doc) != []

    def test_non_numeric_timings_rejected(self):
        doc = artifact()
        doc["timings"] = {"kernel_wall_s": "fast"}
        assert validate_bench_artifact(doc) != []

    def test_file_validation_and_cli(self, tmp_path, capsys):
        good = tmp_path / "BENCH_OK.json"
        good.write_text(json.dumps(artifact()))
        bad = tmp_path / "BENCH_BAD.json"
        bad.write_text(json.dumps({"schema": BENCH_SCHEMA}))
        assert validate_bench_file(str(good)) == []
        assert validate_bench_file(str(bad)) != []
        assert main([str(good)]) == 0
        assert main([str(good), str(bad)]) == 1
        assert main([]) == 2

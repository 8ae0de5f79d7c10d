"""RunReport assembly, the JSONL CLI path, and the end-to-end
acceptance property: every decision of an instrumented consensus run
appears in the exported JSONL with its step index, location and
enclosing span."""

import json

import pytest

from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.perfect import Perfect
from repro.ioa.actions import Action
from repro.obs.report import (
    RunReport,
    build_run_report,
    main,
    report_from_jsonl,
)
from repro.obs.trace import TraceRecorder
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


def instrumented_run():
    recorder = TraceRecorder(fd_output_name="fd-p")
    result = run_consensus_experiment(
        perfect_consensus_algorithm(LOCS),
        Perfect(LOCS),
        proposals={0: 1, 1: 0, 2: 1},
        fault_pattern=FaultPattern({2: 6}, LOCS),
        f=1,
        instrument=recorder,
    )
    return result, recorder


class TestBuildRunReport:
    def test_from_recorder_and_execution(self):
        result, recorder = instrumented_run()
        report = build_run_report(
            execution=result.execution,
            recorder=recorder,
            meta={"experiment": "test"},
        )
        assert report.stats.decisions == 2
        assert report.event_counts["decision"] == 2
        assert report.event_counts["checker"] == 2
        assert any("->" in edge for edge in report.message_matrix)
        assert sum(report.message_matrix.values()) == report.stats.sends
        d = report.to_dict()
        assert d["schema"] == "repro.report/1"
        assert d["stats"]["decisions"] == 2
        # The report is JSON-serializable as-is.
        json.dumps(d)

    def test_recorder_only_matrix_from_events(self):
        rec = TraceRecorder()
        rec.on_action(0, Action("send", 0, ("m", 1)), False)
        rec.on_action(1, Action("send", 0, ("m", 1)), False)
        report = build_run_report(recorder=rec)
        assert report.message_matrix == {"0->1": 2}
        assert report.stats is None

    def test_to_text_mentions_top_spans(self):
        result, recorder = instrumented_run()
        report = build_run_report(
            execution=result.execution, recorder=recorder
        )
        text = report.to_text()
        assert "consensus-run" in text
        assert "decision" in text


class TestDecisionEventsInJsonl:
    def test_every_decision_exported_with_context(self, tmp_path):
        result, recorder = instrumented_run()
        path = str(tmp_path / "run.jsonl")
        recorder.to_jsonl(path)
        with open(path) as fp:
            events = [json.loads(line) for line in fp if line.strip()]
        decisions = [e for e in events if e["kind"] == "decision"]
        stats_decisions = sum(
            1 for a in result.execution.actions if a.name == "decide"
        )
        assert len(decisions) == stats_decisions == 2
        for event in decisions:
            assert isinstance(event["step"], int)
            assert event["location"] in LOCS
            assert event["span"] == "consensus-run"


class TestJsonlCli:
    def test_report_from_jsonl_and_main(self, tmp_path, capsys):
        _result, recorder = instrumented_run()
        path = str(tmp_path / "run.jsonl")
        recorder.to_jsonl(path)
        report = report_from_jsonl(path)
        assert report.event_counts["decision"] == 2
        assert any(s["name"] == "consensus-run" for s in report.spans)
        assert main([path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "decision" in out
        assert "consensus-run" in out

    def test_main_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["a", "b"]) == 2
        assert main(["--top", "x", "f.jsonl"]) == 2
        assert main(["/nonexistent/trace.jsonl"]) == 1

    def test_empty_report_text(self):
        assert "events: 0" in RunReport().to_text() or RunReport().to_text()


class TestGracefulInputs:
    """The CLI never crashes on degenerate traces: empty files, killed
    writers and stray text are reported, not raised."""

    def test_empty_file_exits_zero_and_says_so(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 0
        captured = capsys.readouterr()
        assert "empty trace" in captured.err

    def test_truncated_line_skipped_and_counted(self, tmp_path, capsys):
        _result, recorder = instrumented_run()
        path = tmp_path / "run.jsonl"
        recorder.to_jsonl(str(path))
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"kind": "deci')  # killed writer mid-line
        assert main([str(path)]) == 0
        assert "skipped 1 malformed line" in capsys.readouterr().err
        report = report_from_jsonl(str(path), strict=False)
        assert report.meta["skipped_lines"] == 1
        assert report.event_counts["decision"] == 2

    def test_strict_library_default_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(json.JSONDecodeError):
            report_from_jsonl(str(path))

    def test_format_json_parses(self, tmp_path, capsys):
        _result, recorder = instrumented_run()
        path = tmp_path / "run.jsonl"
        recorder.to_jsonl(str(path))
        assert main([str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.report/1"
        assert doc["event_counts"]["decision"] == 2

    def test_format_json_on_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path), "--format=json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["num_events"] == 0

    def test_unknown_format_exits_two(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path), "--format", "yaml"]) == 2

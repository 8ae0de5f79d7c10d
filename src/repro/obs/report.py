"""Per-run reports: serializable summaries of executions and traces.

:class:`RunReport` subsumes :class:`~repro.analysis.stats.RunStatistics`
(the event tallies) and extends it with the observability layer's view:
event-kind counts, the per-location message matrix and span timings.
Build one from an :class:`~repro.ioa.executions.Execution`, a
:class:`~repro.obs.trace.TraceRecorder`, or both.

Also the CLI over saved traces::

    python -m repro.obs.report run.jsonl [--top 10] [--format text|json]

which pretty-prints (or, with ``--format json``, emits as JSON) the
event-kind counts, the top-N slowest spans and the per-location message
matrix of a JSONL trace exported by :meth:`TraceRecorder.to_jsonl`.  The
CLI is tolerant of imperfect inputs: a missing file is a clean error
(exit 1, no traceback), an empty trace is an empty report, and truncated
or non-JSON lines (a killed writer) are skipped and *counted* in the
report's ``skipped_lines`` meta field rather than aborting the summary.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import RunStatistics, collect_run_statistics
from repro.ioa.executions import Execution
from repro.obs.trace import TraceRecorder, load_jsonl


@dataclass
class RunReport:
    """Everything measurable about one run, JSON-ready.

    ``message_matrix`` maps ``"<src>-><dst>"`` to the number of sends on
    that channel; ``per_location`` maps stringified locations to their
    event counts.
    """

    meta: Dict[str, Any] = field(default_factory=dict)
    stats: Optional[RunStatistics] = None
    event_counts: Dict[str, int] = field(default_factory=dict)
    message_matrix: Dict[str, int] = field(default_factory=dict)
    per_location: Dict[str, int] = field(default_factory=dict)
    spans: List[Dict[str, float]] = field(default_factory=list)
    wall_s: Optional[float] = None

    # -- Export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": "repro.report/1", "meta": self.meta}
        if self.stats is not None:
            doc["stats"] = self.stats.to_dict()
        doc["event_counts"] = self.event_counts
        doc["message_matrix"] = self.message_matrix
        doc["per_location"] = self.per_location
        doc["spans"] = self.spans
        if self.wall_s is not None:
            doc["wall_s"] = self.wall_s
        return doc

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent, default=str)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(text + "\n")
        return text

    def to_text(self, top: int = 10) -> str:
        """A human-readable summary (the CLI's output format)."""
        lines: List[str] = []
        title = self.meta.get("title", "run report")
        lines.append(f"== {title} ==")
        for key, value in self.meta.items():
            if key != "title":
                lines.append(f"  {key}: {value}")
        if self.wall_s is not None:
            lines.append(f"  wall time: {self.wall_s:.4f}s")
        if self.stats is not None:
            s = self.stats
            lines.append(
                f"  events: {s.total_events}  sends: {s.sends}  "
                f"receives: {s.receives}  crashes: {s.crashes}  "
                f"decisions: {s.decisions}"
            )
            if s.decision_latency is not None:
                lines.append(
                    f"  decision latency: first {s.first_decision_latency}, "
                    f"last {s.decision_latency} events"
                )
        if self.event_counts:
            lines.append("-- event kinds --")
            for kind, count in sorted(
                self.event_counts.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"  {kind:<12} {count}")
        if self.spans:
            lines.append(f"-- slowest spans (top {top}) --")
            for span in sorted(self.spans, key=lambda s: -s["dur_s"])[:top]:
                lines.append(f"  {span['name']:<24} {span['dur_s']:.6f}s")
        if self.message_matrix:
            lines.append("-- message matrix (src->dst: sends) --")
            for edge, count in sorted(self.message_matrix.items()):
                lines.append(f"  {edge:<12} {count}")
        return "\n".join(lines)


def build_run_report(
    execution: Optional[Execution] = None,
    recorder: Optional[TraceRecorder] = None,
    fd_output_name: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
    wall_s: Optional[float] = None,
) -> RunReport:
    """Assemble a :class:`RunReport` from whatever was instrumented.

    The execution yields the tallies and message matrix; the recorder
    yields event-kind counts, per-location counts and span timings.
    Either works alone.
    """
    report = RunReport(meta=dict(meta or {}), wall_s=wall_s)
    if execution is not None:
        if fd_output_name is None and recorder is not None:
            fd_output_name = recorder.fd_output_name
        report.stats = collect_run_statistics(execution, fd_output_name)
        matrix: Dict[str, int] = {}
        for action in execution.actions:
            if action.name == "send" and len(action.payload) == 2:
                edge = f"{action.location}->{action.payload[1]}"
                matrix[edge] = matrix.get(edge, 0) + 1
        report.message_matrix = matrix
    if recorder is not None:
        report.event_counts = recorder.counts()
        per_location: Dict[str, int] = {}
        for event in recorder.events:
            if event.location is not None:
                key = str(event.location)
                per_location[key] = per_location.get(key, 0) + 1
        report.per_location = per_location
        report.spans = [
            {"name": span.name, "dur_s": span.dur_s}
            for span in recorder.spans
        ]
        if not report.message_matrix:
            report.message_matrix = _matrix_from_events(
                e.to_dict() for e in recorder.events
            )
    return report


# -- JSONL trace summaries (the CLI path) ----------------------------------


def _matrix_from_events(events) -> Dict[str, int]:
    matrix: Dict[str, int] = {}
    for event in events:
        if event.get("kind") == "send":
            src = event.get("location")
            dst = event.get("data", {}).get("dst")
            if src is not None and dst is not None:
                edge = f"{src}->{dst}"
                matrix[edge] = matrix.get(edge, 0) + 1
    return matrix


def _load_jsonl_tolerant(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Like :func:`~repro.obs.trace.load_jsonl`, but malformed lines
    (truncated tail of a killed writer, stray text) are skipped and
    tallied instead of raising."""
    events: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(doc, dict):
                events.append(doc)
            else:
                skipped += 1
    return events, skipped


def report_from_jsonl(path: str, strict: bool = True) -> RunReport:
    """Rebuild a summary report from an exported JSONL trace.

    ``strict=True`` (the library default) propagates malformed lines as
    ``json.JSONDecodeError``; the CLI passes ``strict=False`` to skip
    and count them (``meta["skipped_lines"]``).
    """
    if strict:
        events = load_jsonl(path)
        skipped = 0
    else:
        events, skipped = _load_jsonl_tolerant(path)
    counts: Dict[str, int] = {}
    per_location: Dict[str, int] = {}
    spans: List[Dict[str, float]] = []
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        location = event.get("location")
        if location is not None:
            per_location[str(location)] = per_location.get(str(location), 0) + 1
        if kind == "span-end":
            spans.append(
                {
                    "name": event.get("name", "?"),
                    "dur_s": float(event.get("data", {}).get("dur_s", 0.0)),
                }
            )
    meta: Dict[str, Any] = {"title": path, "num_events": len(events)}
    if skipped:
        meta["skipped_lines"] = skipped
    return RunReport(
        meta=meta,
        event_counts=counts,
        per_location=per_location,
        spans=spans,
        message_matrix=_matrix_from_events(events),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: summarize a saved JSONL trace.

    Exit status: 0 on a readable trace (even an empty or partially
    truncated one — the report says so), 1 on an unreadable file, 2 on
    usage errors.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    top = 10
    fmt = "text"
    if "--top" in args:
        k = args.index("--top")
        try:
            top = int(args[k + 1])
        except (IndexError, ValueError):
            print("--top needs an integer", file=sys.stderr)
            return 2
        del args[k : k + 2]
    if "--format" in args:
        k = args.index("--format")
        try:
            fmt = args[k + 1]
        except IndexError:
            print("--format needs a value", file=sys.stderr)
            return 2
        del args[k : k + 2]
    for arg in list(args):
        if arg.startswith("--format="):
            fmt = arg.split("=", 1)[1]
            args.remove(arg)
    if fmt not in ("text", "json"):
        print(f"unknown format {fmt!r} (text or json)", file=sys.stderr)
        return 2
    if len(args) != 1:
        print(
            "usage: python -m repro.obs.report <run.jsonl> [--top N] "
            "[--format text|json]",
            file=sys.stderr,
        )
        return 2
    try:
        report = report_from_jsonl(args[0], strict=False)
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text(top=top))
        if not report.event_counts:
            print("(empty trace: no events)", file=sys.stderr)
        skipped = report.meta.get("skipped_lines")
        if skipped:
            print(
                f"(skipped {skipped} malformed line(s))", file=sys.stderr
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

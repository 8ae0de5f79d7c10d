"""TraceRecorder: classification, spans, counts, the canonical trace."""

import dataclasses
import hashlib
import json

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.analysis.checkers import run_consensus_experiment
from repro.detectors.perfect import Perfect
from repro.faults.plan import ChannelFaults, FaultPlan
from repro.ioa.actions import Action
from repro.obs.trace import TraceRecorder
from repro.runner.spec import ExperimentSpec, run_spec
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestClassification:
    def test_taxonomy(self):
        rec = TraceRecorder(fd_output_name="fd-omega")
        assert rec.classify(Action("crash", 1), True) == "crash"
        assert rec.classify(Action("send", 0, ("m", 1)), False) == "send"
        assert rec.classify(Action("receive", 1, ("m", 0)), False) == "receive"
        assert rec.classify(Action("decide", 0, (1,)), False) == "decision"
        assert rec.classify(Action("fd-omega", 0, (0,)), False) == "fd-output"
        assert rec.classify(Action("propose", 0, (1,)), True) == "injection"
        assert rec.classify(Action("tick", 0), False) == "action"

    def test_send_receive_endpoints(self):
        rec = TraceRecorder()
        rec.on_action(0, Action("send", 0, ("m", 2)), False)
        rec.on_action(1, Action("receive", 2, ("m", 0)), False)
        send, receive = rec.events
        assert send.data == {"dst": 2}
        assert receive.data == {"src": 0}

    def test_unclassified_fd_output_without_name(self):
        rec = TraceRecorder()  # no fd_output_name
        assert rec.classify(Action("fd-omega", 0, (0,)), False) == "action"


class TestSpans:
    def test_events_carry_innermost_span(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            rec.record("checker", name="a", ok=True)
            with rec.span("inner"):
                rec.record("checker", name="b", ok=True)
        by_name = {e.data.get("ok") and e.name: e for e in rec.events
                   if e.kind == "checker"}
        assert by_name["a"].span == "outer"
        assert by_name["b"].span == "inner"
        assert [(e.kind, e.name) for e in rec.events if e.kind != "checker"] == [
            ("span-start", "outer"),
            ("span-start", "inner"),
            ("span-end", "inner"),
            ("span-end", "outer"),
        ]
        # A span is a marker, not a timer: its events carry no data.
        assert all(not e.data for e in rec.events if e.kind != "checker")


class TestJsonl:
    def test_round_trip(self):
        rec = TraceRecorder()
        with rec.span("run"):
            rec.on_action(0, Action("send", 0, ("m", 1)), False)
            rec.on_action(1, Action("decide", 1, (0,)), False)
        events = [json.loads(line) for line in rec.canonical_jsonl_lines()]
        assert events == list(rec.canonical_dicts())
        assert [e["kind"] for e in events] == [
            "span-start", "send", "decision", "span-end",
        ]
        decision = events[2]
        assert decision["step"] == 1
        assert decision["location"] == 1
        assert decision["span"] == "run"


class TestCounts:
    def test_counts_by_kind(self):
        rec = TraceRecorder()
        rec.on_run_start(None, 5)
        rec.on_action(0, Action("tick", 0), False)
        rec.on_run_end(1, "max-steps")
        assert rec.counts() == {"run-start": 1, "action": 1, "run-end": 1}
        end = rec.events[-1]
        assert (end.kind, end.data) == (
            "run-end", {"steps": 1, "reason": "max-steps"}
        )

    def test_step_events_only_when_requested(self):
        quiet = TraceRecorder()
        quiet.on_step_scheduled(0)
        assert quiet.events == []
        chatty = TraceRecorder(record_steps=True)
        chatty.on_step_scheduled(0)
        assert chatty.counts() == {"step": 1}


# -- Canonical traces ----------------------------------------------------------

TRACED_SPECS = {
    "consensus-omega": ExperimentSpec(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        crashes={2: 30},
        instrument=True,
        max_steps=2000,
    ),
    "consensus-p-chaos": ExperimentSpec(
        algorithm=perfect_consensus_algorithm,
        detector="p",
        locations=LOCS,
        crashes={1: 12},
        policy="random",
        seed=9,
        fault_plan=FaultPlan(
            seed=2, default=ChannelFaults(duplicate_p=0.3, reorder_p=0.2)
        ),
        instrument=True,
        max_steps=3000,
    ),
    "detector-trace": ExperimentSpec(
        problem="detector-trace",
        detector="evp",
        locations=LOCS,
        crashes={1: 25},
        seed=7,
        max_steps=400,
        instrument=True,
    ),
    "timed-detector": ExperimentSpec(
        problem="timed-detector",
        detector="heartbeat",
        locations=LOCS,
        crashes={2: 40},
        max_steps=600,
        instrument=True,
    ),
}

#: (spec, record_steps) -> sha256 prefix of ``"\n".join(result.trace)``,
#: the same on both engines.
TRACE_PINS = {
    ('consensus-omega', False): '4869c8785dd4a02b',
    ('consensus-omega', True): 'ef53da8767ad516d',
    ('consensus-p-chaos', False): 'f0758a05af4e394c',
    ('consensus-p-chaos', True): '9fe3f97231688e6e',
    ('detector-trace', False): '59eadfe95880202d',
    ('detector-trace', True): '7b2995f027ba6b93',
    ('timed-detector', False): 'a30553ab8497cdbc',
    ('timed-detector', True): 'b5d05af49c0d08dc',
}


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
@pytest.mark.parametrize(
    "case",
    list(TRACE_PINS),
    ids=[f"{name}-steps{int(steps)}" for name, steps in TRACE_PINS],
)
def test_canonical_trace_is_pinned(case, compiled):
    name, record_steps = case
    spec = dataclasses.replace(
        TRACED_SPECS[name], record_steps=record_steps, compiled=compiled
    )
    trace = run_spec(spec).trace
    digest = hashlib.sha256("\n".join(trace).encode()).hexdigest()[:16]
    assert digest == TRACE_PINS[case]


class TestDecisionEvents:
    """Every decision of an instrumented consensus run appears in the
    canonical trace with its step index, location and enclosing span."""

    def test_every_decision_recorded_with_context(self):
        recorder = TraceRecorder(fd_output_name="fd-p")
        result = run_consensus_experiment(
            perfect_consensus_algorithm(LOCS),
            Perfect(LOCS),
            proposals={0: 1, 1: 0, 2: 1},
            fault_pattern=FaultPattern({2: 6}, LOCS),
            f=1,
            instrument=recorder,
        )
        decisions = [
            e for e in recorder.canonical_dicts() if e["kind"] == "decision"
        ]
        stats_decisions = sum(
            1 for a in result.execution.actions if a.name == "decide"
        )
        assert len(decisions) == stats_decisions == 2
        for event in decisions:
            assert isinstance(event["step"], int)
            assert event["location"] in LOCS
            assert event["span"] == "consensus-run"

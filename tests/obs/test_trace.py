"""TraceRecorder: classification, spans, counts, the canonical trace.

The recorder reads a finished run's execution
(:meth:`TraceRecorder.record_run`).  The pins hold the sha256 prefix of
whole canonical traces, so a changed byte anywhere in one fails them.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.faults.plan import ChannelFaults, FaultPlan
from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.executions import Execution
from repro.ioa.scheduler import Injection, Scheduler
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.trace import TraceRecorder
from repro.runner.spec import ExperimentSpec, run_spec
from repro.system.fault_pattern import crash_action

LOCS = (0, 1, 2)


def execution_of(actions, injected=(), reason="max-steps"):
    """A hand-built execution of ``actions`` (states do not matter)."""
    return Execution(
        [None] * (len(actions) + 1),
        actions,
        injected=injected,
        reason=reason,
    )


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
        rec.record_run(None, 2, execution_of(
            [Action("send", 0, ("m", 2)), Action("receive", 2, ("m", 0))]
        ))
        _start, send, receive, _end = rec.events
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
            rec.record_run("m", 5, execution_of(
                [Action("send", 0, ("m", 1)), Action("decide", 1, (0,))]
            ))
        events = [json.loads(line) for line in rec.canonical_jsonl_lines()]
        assert events == list(rec.canonical_dicts())
        assert [e["kind"] for e in events] == [
            "span-start", "run-start", "send", "decision", "run-end",
            "span-end",
        ]
        decision = events[3]
        assert decision["step"] == 1
        assert decision["location"] == 1
        assert decision["span"] == "run"


class TestCounts:
    def test_counts_by_kind(self):
        rec = TraceRecorder()
        rec.record_run(None, 5, execution_of([Action("tick", 0)]))
        assert rec.counts() == {"run-start": 1, "action": 1, "run-end": 1}
        end = rec.events[-1]
        assert (end.kind, end.data) == (
            "run-end", {"steps": 1, "reason": "max-steps"}
        )

    def test_injected_steps_are_flagged(self):
        rec = TraceRecorder()
        rec.record_run(None, 9, execution_of(
            [Action("tick", 0), crash_action(1), Action("in", 0)],
            injected=(1, 2),
            reason="quiescent",
        ))
        assert [(e.kind, e.step, e.data) for e in rec.events] == [
            ("run-start", None, {"max_steps": 9}),
            ("action", 0, {}),
            ("crash", 1, {"injected": True}),
            ("injection", 2, {}),
            ("run-end", None, {"steps": 3, "reason": "quiescent"}),
        ]


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

#: spec -> sha256 prefix of ``"\n".join(result.trace)``, the same on
#: both engines.
TRACE_PINS = {
    'consensus-omega': '4869c8785dd4a02b',
    'consensus-p-chaos': 'f0758a05af4e394c',
    'detector-trace': '59eadfe95880202d',
    'timed-detector': 'a30553ab8497cdbc',
}


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
@pytest.mark.parametrize("name", list(TRACE_PINS))
def test_canonical_trace_is_pinned(name, compiled):
    spec = dataclasses.replace(TRACED_SPECS[name], compiled=compiled)
    trace = run_spec(spec).trace
    digest = hashlib.sha256("\n".join(trace).encode()).hexdigest()[:16]
    assert digest == TRACE_PINS[name]


# -- Edge-case runs --------------------------------------------------------------

SEND = Action("send", 0, ("m", 1))
RECEIVE = Action("receive", 1, ("m", 0))
FD = Action("fd-x", 0, (0,))
DECIDE = Action("decide", 0, (1,))
TICK = Action("tick", 0)
IN = Action("in", 0)
CRASH_0 = crash_action(0)
CYCLE = (SEND, RECEIVE, FD, DECIDE, TICK)


def talker(limit=None, period=None):
    """One output enabled per state, cycling through every event kind.

    The state counts events: without ``period`` it never repeats, so no
    run closes; modulo ``period`` it does.  From ``limit`` events on
    nothing is enabled.
    """
    def enabled(s):
        if limit is not None and s >= limit:
            return []
        return [CYCLE[s % len(CYCLE)]]

    def transition(s, a):
        return s + 1 if period is None else (s + 1) % period

    return FunctionalAutomaton(
        name="talker",
        signature=Signature(
            inputs=FiniteActionSet([IN, CRASH_0]),
            outputs=FiniteActionSet(CYCLE),
        ),
        initial=0,
        transition=transition,
        enabled_fn=enabled,
    )


#: name -> (automaton, max_steps, injections, stop_when)
EDGE_RUNS = {
    "max-steps": (talker, 9, [Injection(1, CRASH_0), Injection(3, IN)], None),
    "quiescent": (lambda: talker(limit=4), 10, [], None),
    "fast-forward": (lambda: talker(limit=2), 10, [Injection(6, IN)], None),
    "stopped": (talker, 20, [Injection(2, IN)], lambda s: s >= 6),
    "lasso": (lambda: talker(period=5), 30, [Injection(2, CRASH_0)], None),
}

#: name -> sha256 prefix of the run's canonical trace, on both engines.
EDGE_PINS = {
    "max-steps": "b8f85220a270b34b",
    "quiescent": "8b92c8b003d3255c",
    "fast-forward": "1d94812511cb4f78",
    "stopped": "66f0d01f87d08d64",
    "lasso": "d585e3b2dc3c18f2",
}


def edge_run(name, compiled):
    """The execution of one edge-case run and its canonical trace."""
    make, max_steps, injections, stop_when = EDGE_RUNS[name]
    automaton = make()
    execution = Scheduler(compiled=compiled).run(
        automaton, max_steps, injections=injections, stop_when=stop_when
    )
    recorder = TraceRecorder(fd_output_name="fd-x")
    recorder.record_run(automaton.name, max_steps, execution)
    return execution, recorder.canonical_jsonl_lines()


@pytest.mark.parametrize(
    "compiled", [False, True], ids=["interpreted", "compiled"]
)
@pytest.mark.parametrize("name", list(EDGE_RUNS))
def test_edge_case_trace_is_pinned(name, compiled):
    execution, lines = edge_run(name, compiled)
    assert (execution.lasso is not None) == (name == "lasso")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == EDGE_PINS[name]


class TestDecisionEvents:
    """Every decision of an instrumented consensus run appears in the
    canonical trace with its step index, location and enclosing span."""

    def test_every_decision_recorded_with_context(self):
        spec = ExperimentSpec(
            algorithm=perfect_consensus_algorithm,
            detector="p",
            locations=LOCS,
            proposals={0: 1, 1: 0, 2: 1},
            crashes={2: 6},
            f=1,
            instrument=True,
        )
        result = run_spec(spec, keep=True)
        decisions = [
            e
            for e in map(json.loads, result.trace)
            if e["kind"] == "decision"
        ]
        stats_decisions = sum(
            1 for a in result.run.execution.actions if a.name == "decide"
        )
        assert len(decisions) == stats_decisions == 2
        for event in decisions:
            assert isinstance(event["step"], int)
            assert event["location"] in LOCS
            assert event["span"] == "consensus-run"

"""Structured event tracing for the simulation engine.

The scheduler resolves nondeterminism step by step, and the
:class:`~repro.ioa.executions.Execution` it returns records *what it
resolved*: every action, which steps an injection supplied, and why the
run ended.  A trace is a projection of the execution (Section 2.2), so
:class:`TraceRecorder` reads it from the execution after the run
(:meth:`TraceRecorder.record_run`): it turns each action into a
:class:`TraceEvent` of the harness's event taxonomy (send / receive /
crash / decision / fd-output / injection / action), supports nested
span markers, and renders the canonical JSONL trace ``result.trace``
stores.  A plain run pays nothing for tracing.

Events record what happened, not when: the paper's AFDs have no real
time (Section 3.2), so an event's only clock is its step index, and a
deterministic run has one trace however and wherever it executed.

Event taxonomy (the ``kind`` field):

===============  ====================================================
``run-start``    a scheduler run began (``data.max_steps``)
``injection``    an adversary-injected non-crash action fired
``crash``        a crash event fired
``send``         a ``send(m, j)_i`` action (``data.dst``)
``receive``      a ``receive(m, i)_j`` action (``data.src``)
``fd-output``    a failure-detector output action
``decision``     a ``decide`` action
``action``       any other action
``checker``      a specification checker verdict (``data.ok``)
``span-start``   a span opened
``span-end``     a span closed
``run-end``      the run ended (``data.reason``, ``data.steps``)
===============  ====================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.ioa.actions import Action
from repro.ioa.executions import Execution

#: Action names with a dedicated event kind.
SEND = "send"
RECEIVE = "receive"
CRASH = "crash"
DECIDE = "decide"


@dataclass
class TraceEvent:
    """One recorded event.

    ``span`` is the name of the innermost enclosing span, if any.
    """

    __slots__ = ("kind", "step", "location", "name", "span", "data")

    kind: str
    step: Optional[int]
    location: Optional[int]
    name: Optional[str]
    span: Optional[str]
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"kind": self.kind}
        if self.step is not None:
            d["step"] = self.step
        if self.location is not None:
            d["location"] = self.location
        if self.name is not None:
            d["name"] = self.name
        if self.span is not None:
            d["span"] = self.span
        if self.data:
            d["data"] = self.data
        return d


class _SpanHandle:
    """Context manager returned by :meth:`TraceRecorder.span`."""

    __slots__ = ("_recorder", "name")

    def __init__(self, recorder: "TraceRecorder", name: str):
        self._recorder = recorder
        self.name = name

    def __enter__(self) -> "_SpanHandle":
        self._recorder._span_stack.append(self.name)
        self._recorder._append("span-start", None, None, self.name, {})
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._append("span-end", None, None, self.name, {})
        self._recorder._span_stack.pop()


class TraceRecorder:
    """Record scheduler runs as typed events.

    Parameters
    ----------
    fd_output_name:
        Name of the failure detector's output action (e.g. ``"fd-omega"``);
        actions with this name are classified as ``fd-output`` events.

    Examples
    --------
    >>> from repro.ioa.scheduler import Scheduler
    >>> from repro.detectors.omega import OmegaAutomaton
    >>> automaton = OmegaAutomaton(locations=(0, 1))
    >>> execution = Scheduler().run(automaton, max_steps=4)
    >>> recorder = TraceRecorder(fd_output_name="fd-omega")
    >>> with recorder.span("demo"):
    ...     recorder.record_run(automaton.name, 4, execution)
    >>> [e.kind for e in recorder.events][:2]
    ['span-start', 'run-start']
    >>> recorder.counts()["fd-output"]
    4
    """

    def __init__(self, fd_output_name: Optional[str] = None):
        self.fd_output_name = fd_output_name
        self.events: List[TraceEvent] = []
        self._span_stack: List[str] = []

    # -- Internals ---------------------------------------------------------

    def _append(
        self,
        kind: str,
        step: Optional[int],
        location: Optional[int],
        name: Optional[str],
        data: Dict[str, Any],
    ) -> None:
        self.events.append(
            TraceEvent(
                kind=kind,
                step=step,
                location=location,
                name=name,
                span=self._span_stack[-1] if self._span_stack else None,
                data=data,
            )
        )

    def classify(self, action: Action, injected: bool) -> str:
        """The event kind of a fired action."""
        name = action.name
        if name == CRASH:
            return "crash"
        if name == SEND:
            return "send"
        if name == RECEIVE:
            return "receive"
        if name == DECIDE:
            return "decision"
        if self.fd_output_name is not None and name == self.fd_output_name:
            return "fd-output"
        return "injection" if injected else "action"

    # -- Recording ----------------------------------------------------------

    def record_run(
        self, name: Optional[str], max_steps: int, execution: Execution
    ) -> None:
        """Record one scheduler run of the automaton called ``name``
        with budget ``max_steps``: a ``run-start`` event, one event per
        action of ``execution`` (its :attr:`~Execution.injected` steps
        flagged), and a ``run-end`` event with its
        :attr:`~Execution.reason`."""
        self._append("run-start", None, None, name, {"max_steps": max_steps})
        injected = frozenset(execution.injected)
        for step, action in enumerate(execution.actions):
            by_injection = step in injected
            kind = self.classify(action, by_injection)
            data: Dict[str, Any] = {}
            if by_injection and kind != "injection":
                data["injected"] = True
            # Message events carry the other endpoint, so a reader of the
            # trace need not re-parse payloads.
            if kind == "send" and len(action.payload) == 2:
                data["dst"] = action.payload[1]
            elif kind == "receive" and len(action.payload) == 2:
                data["src"] = action.payload[1]
            self._append(kind, step, action.location, action.name, data)
        self._append(
            "run-end",
            None,
            None,
            None,
            {"steps": len(execution), "reason": execution.reason},
        )

    def record(
        self,
        kind: str,
        step: Optional[int] = None,
        location: Optional[int] = None,
        name: Optional[str] = None,
        **data: Any,
    ) -> None:
        """Record an arbitrary event (e.g. a checker verdict)."""
        self._append(kind, step, location, name, data)

    def span(self, name: str) -> _SpanHandle:
        """A context manager marking a named span.

        Events recorded while the span is open carry its name, between a
        ``span-start`` and a ``span-end`` event.
        """
        return _SpanHandle(self, name)

    # -- Queries ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event-kind -> number of recorded events of that kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # -- Export -------------------------------------------------------------

    def canonical_dicts(self) -> Iterator[Dict[str, Any]]:
        """The events as dicts.

        For a deterministic run this sequence is itself deterministic —
        byte-identical however and wherever the run executed — which is
        what the :mod:`repro.runner` engine stores and what the
        determinism tests compare.
        """
        for event in self.events:
            yield event.to_dict()

    def canonical_jsonl_lines(self) -> List[str]:
        """The canonical trace as JSONL lines (sorted keys)."""
        return [
            json.dumps(d, sort_keys=True, default=str)
            for d in self.canonical_dicts()
        ]

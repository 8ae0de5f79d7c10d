"""Structured event tracing for the simulation engine.

The scheduler resolves nondeterminism step by step; this module records
*what it resolved* as a sequence of typed events.  Two pieces:

* :class:`Observer` — the notification protocol the engine speaks.  Every
  method is a no-op here, so the engine can call any subclass without
  caring which events it cares about.  The engine guards every
  notification with ``if observer is not None``, so a run without an
  observer allocates nothing and pays only that predicate.
* :class:`TraceRecorder` — an observer that materializes notifications
  into :class:`TraceEvent` records with monotonic timestamps, classifies
  actions into the harness's event taxonomy (send / receive / crash /
  decision / fd-output / injection / action), supports nested span
  timers, and exports JSON Lines.

Event taxonomy (the ``kind`` field):

===============  ====================================================
``run-start``    a scheduler run began (``data.max_steps``)
``step``         a step was scheduled (only with ``record_steps=True``)
``injection``    an adversary-injected non-crash action fired
``crash``        a crash event fired
``send``         a ``send(m, j)_i`` action (``data.dst``)
``receive``      a ``receive(m, i)_j`` action (``data.src``)
``fd-output``    a failure-detector output action
``decision``     a ``decide`` action
``action``       any other action
``checker``      a specification checker verdict (``data.ok``)
``span-start``   a span timer opened
``span-end``     a span timer closed (``data.dur_s``)
``run-end``      the run ended (``data.reason``, ``data.steps``)
===============  ====================================================
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Optional, Union

from repro.ioa.actions import Action

#: Action names with a dedicated event kind.
SEND = "send"
RECEIVE = "receive"
CRASH = "crash"
DECIDE = "decide"


class Observer:
    """The engine-side notification protocol; every method is a no-op.

    Subclass and override what you need.  The scheduler only ever calls
    these methods — it never inspects observer state — so any object with
    this interface can be attached to :class:`~repro.ioa.scheduler.Scheduler`
    or :class:`~repro.system.network.SystemBuilder`.
    """

    def on_run_start(self, automaton, max_steps: int) -> None:
        """A scheduler run is about to produce its first step."""

    def on_step_scheduled(self, step: int) -> None:
        """The scheduler is about to resolve step ``step``."""

    def on_action(self, step: int, action: Action, injected: bool) -> None:
        """``action`` fired as event number ``step`` of the run."""

    def on_run_end(self, steps: int, reason: str) -> None:
        """The run ended after ``steps`` events.

        ``reason`` is one of ``"max-steps"``, ``"quiescent"``,
        ``"stopped"`` (the ``stop_when`` predicate fired).
        """


class MultiObserver(Observer):
    """Fan one stream of notifications out to several observers.

    Also proxies the :class:`TraceRecorder` extras (``record``, ``span``)
    to whichever members support them, so callers can treat a fan-out
    like a single recorder.
    """

    def __init__(self, *observers: Observer):
        self.observers = tuple(observers)

    def record(self, kind: str, **kwargs: Any) -> None:
        for o in self.observers:
            rec = getattr(o, "record", None)
            if rec is not None:
                rec(kind, **kwargs)

    def span(self, name: str):
        from contextlib import ExitStack

        stack = ExitStack()
        for o in self.observers:
            member_span = getattr(o, "span", None)
            if member_span is not None:
                stack.enter_context(member_span(name))
        return stack

    def on_run_start(self, automaton, max_steps: int) -> None:
        for o in self.observers:
            o.on_run_start(automaton, max_steps)

    def on_step_scheduled(self, step: int) -> None:
        for o in self.observers:
            o.on_step_scheduled(step)

    def on_action(self, step: int, action: Action, injected: bool) -> None:
        for o in self.observers:
            o.on_action(step, action, injected)

    def on_run_end(self, steps: int, reason: str) -> None:
        for o in self.observers:
            o.on_run_end(steps, reason)


@dataclass
class TraceEvent:
    """One recorded event.

    ``t`` is seconds since the recorder was created (monotonic clock);
    ``span`` is the name of the innermost enclosing span, if any.
    """

    __slots__ = ("kind", "step", "location", "name", "span", "t", "data")

    kind: str
    step: Optional[int]
    location: Optional[int]
    name: Optional[str]
    span: Optional[str]
    t: float
    data: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"kind": self.kind, "t": round(self.t, 9)}
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


@dataclass
class SpanRecord:
    """A closed span: name, start time, and duration (seconds)."""

    name: str
    start: float
    dur_s: float


class _SpanHandle:
    """Context manager returned by :meth:`TraceRecorder.span`."""

    __slots__ = ("_recorder", "name", "_start")

    def __init__(self, recorder: "TraceRecorder", name: str):
        self._recorder = recorder
        self.name = name
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = self._recorder._now()
        self._recorder._span_stack.append(self.name)
        self._recorder._append("span-start", None, None, self.name, {})
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        dur = self._recorder._now() - self._start
        self._recorder._append(
            "span-end", None, None, self.name, {"dur_s": round(dur, 9)}
        )
        self._recorder._span_stack.pop()
        self._recorder.spans.append(SpanRecord(self.name, self._start, dur))


class TraceRecorder(Observer):
    """Record engine notifications as typed, timestamped events.

    Parameters
    ----------
    fd_output_name:
        Name of the failure detector's output action (e.g. ``"fd-omega"``);
        actions with this name are classified as ``fd-output`` events.
    record_steps:
        Also record a ``step`` event each time the scheduler begins
        resolving a step.  Off by default (it doubles the event volume).

    Examples
    --------
    >>> from repro.ioa.scheduler import Scheduler
    >>> from repro.detectors.omega import OmegaAutomaton
    >>> recorder = TraceRecorder(fd_output_name="fd-omega")
    >>> with recorder.span("demo"):
    ...     _ = Scheduler(instrument=recorder).run(
    ...         OmegaAutomaton(locations=(0, 1)), max_steps=4)
    >>> [e.kind for e in recorder.events][:2]
    ['span-start', 'run-start']
    >>> recorder.counts()["fd-output"]
    4
    """

    def __init__(
        self,
        fd_output_name: Optional[str] = None,
        record_steps: bool = False,
    ):
        self.fd_output_name = fd_output_name
        self.record_steps = record_steps
        self.events: List[TraceEvent] = []
        self.spans: List[SpanRecord] = []
        self._span_stack: List[str] = []
        self._t0 = time.perf_counter()

    # -- Internals ---------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._t0

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
                t=self._now(),
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

    # -- Observer protocol --------------------------------------------------

    def on_run_start(self, automaton, max_steps: int) -> None:
        self._append(
            "run-start",
            None,
            None,
            getattr(automaton, "name", None),
            {"max_steps": max_steps},
        )

    def on_step_scheduled(self, step: int) -> None:
        if self.record_steps:
            self._append("step", step, None, None, {})

    def on_action(self, step: int, action: Action, injected: bool) -> None:
        kind = self.classify(action, injected)
        data: Dict[str, Any] = {}
        if injected and kind != "injection":
            data["injected"] = True
        # Message events carry the other endpoint so reports can build the
        # per-location message matrix without re-parsing payloads.
        if kind == "send" and len(action.payload) == 2:
            data["dst"] = action.payload[1]
        elif kind == "receive" and len(action.payload) == 2:
            data["src"] = action.payload[1]
        self._append(kind, step, action.location, action.name, data)

    def on_run_end(self, steps: int, reason: str) -> None:
        self._append(
            "run-end", None, None, None, {"steps": steps, "reason": reason}
        )

    # -- Direct recording ---------------------------------------------------

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
        """A context manager timing a named span.

        Events recorded while the span is open carry its name; the closed
        span is appended to :attr:`spans` and a ``span-end`` event with
        the duration is recorded.
        """
        return _SpanHandle(self, name)

    # -- Queries ------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Event-kind -> number of recorded events of that kind."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def events_of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def slowest_spans(self, top: int = 10) -> List[SpanRecord]:
        return sorted(self.spans, key=lambda s: -s.dur_s)[:top]

    # -- Export -------------------------------------------------------------

    def event_dicts(self) -> Iterator[Dict[str, Any]]:
        for event in self.events:
            yield event.to_dict()

    def canonical_dicts(self) -> Iterator[Dict[str, Any]]:
        """Event dicts with the wall-clock fields removed.

        For a deterministic run this sequence is itself deterministic —
        byte-identical however and wherever the run executed — which is
        what the :mod:`repro.runner` engine stores and what the
        determinism tests compare.  Drops ``t`` from every event and
        ``dur_s`` from ``span-end`` data.
        """
        for event in self.events:
            d = event.to_dict()
            d.pop("t", None)
            if event.kind == "span-end":
                data = dict(d.get("data", {}))
                data.pop("dur_s", None)
                if data:
                    d["data"] = data
                else:
                    d.pop("data", None)
            yield d

    def canonical_jsonl_lines(self) -> List[str]:
        """The canonical trace as JSONL lines (sorted keys, no timings)."""
        return [
            json.dumps(d, sort_keys=True, default=str)
            for d in self.canonical_dicts()
        ]

    def to_jsonl(self, target: Union[str, IO[str]]) -> None:
        """Write one JSON object per line to a path or open file."""
        if hasattr(target, "write"):
            for d in self.event_dicts():
                target.write(json.dumps(d, default=str) + "\n")
        else:
            with open(target, "w", encoding="utf-8") as fp:
                self.to_jsonl(fp)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace exported by :meth:`TraceRecorder.to_jsonl`."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events

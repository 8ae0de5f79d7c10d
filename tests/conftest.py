"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.ioa.automaton import Automaton
from repro.ioa.scheduler import Scheduler
from repro.system.fault_pattern import FaultPattern


@pytest.fixture
def locations3():
    return (0, 1, 2)


@pytest.fixture
def locations4():
    return (0, 1, 2, 3)


@pytest.fixture
def scheduler():
    return Scheduler()


def fresh_turns(states):
    """How many of the policy turns at ``states`` ask about a different
    state object than the previous turn did (the snapshots a run's
    step loop must compute)."""
    return sum(
        1 for k, state in enumerate(states)
        if k == 0 or state is not states[k - 1]
    )


def _automaton_classes(cls=Automaton):
    yield cls
    for sub in cls.__subclasses__():
        yield from _automaton_classes(sub)


@pytest.fixture
def snapshot_calls(monkeypatch):
    """Counts ``enabled_by_task`` calls per defining class, wherever the
    call comes from (policies, compiled snapshot tables, the compiled
    core)."""
    # Only classes that exist can be patched: load every subsystem, or a
    # test run on its own would miss the lazily imported timed automata.
    import repro.api  # noqa: F401

    calls = Counter()
    for cls in set(_automaton_classes()):
        original = cls.__dict__.get("enabled_by_task")
        if original is None:
            continue

        def counted(self, state, _original=original, _name=cls.__qualname__):
            calls[_name] += 1
            return _original(self, state)

        monkeypatch.setattr(cls, "enabled_by_task", counted)
    return calls


def run_detector(detector_automaton, fault_pattern: FaultPattern, steps: int):
    """Run a detector automaton under a fault pattern; return the events."""
    execution = Scheduler().run(
        detector_automaton,
        max_steps=steps,
        injections=fault_pattern.injections(),
    )
    return list(execution.actions)

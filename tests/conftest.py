"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
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


def worker_pid(_item):
    """The pid of the process an item ran in (module-level, so a fork
    pool can carry it)."""
    return os.getpid()


@pytest.fixture
def fan_out_everything(monkeypatch):
    """Send every item of a ``jobs > 1`` batch to the fork pool, the
    first one included, however cheap the batch is.

    Serial-vs-parallel identity tests use it, or their small batches
    would run in the caller and compare the serial path with itself.
    The fixture checks that workers run the items, and that each test
    using it reaches the pool.
    """
    from repro.runner import batch

    monkeypatch.setattr(batch, "_BREAK_EVEN_S", -1.0)
    assert os.getpid() not in batch.parallel_map(worker_pid, [0, 1], jobs=2)
    pools = []
    real_context = batch._mp_context

    def counting_context(name=None):
        pools.append(name)
        return real_context(name)

    monkeypatch.setattr(batch, "_mp_context", counting_context)
    yield
    assert pools, "no batch of this test reached the fork pool"


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

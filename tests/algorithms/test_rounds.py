"""Tests for the P-emulated synchronous-round engine."""

import pytest

from repro.algorithms.kset_floodmin import FloodMinProcess
from repro.algorithms.rounds import ADVANCE, START
from repro.detectors.perfect import perfect_output
from repro.system.channel import receive_action
from repro.system.environment import propose_action
from repro.system.fault_pattern import crash_action

LOCS = (0, 1, 2)


@pytest.fixture
def proc():
    # FloodMin is the simplest concrete instance of the engine.
    return FloodMinProcess(0, LOCS, k=1, f=1, values=(0, 1, 2))


def started(proc):
    state = proc.initial_state()
    state = proc.apply(state, propose_action(0, 0))
    enabled = list(proc.enabled_locally(state))
    assert enabled[0].name == START
    state = proc.apply(state, enabled[0])
    return state


class TestStarting:
    def test_not_ready_before_input(self, proc):
        assert list(proc.enabled_locally(proc.initial_state())) == []

    def test_start_queues_round_1_broadcast(self, proc):
        state = started(proc)
        _failed, core = state
        assert core.round == 1
        assert len(core.outbox) == 2
        assert core.outbox[0].payload[0] == ("floodmin", 1, 0)


class TestRoundCompletion:
    def drain_outbox(self, proc, state):
        while True:
            _failed, core = state
            if not core.outbox:
                return state
            state = proc.apply(state, core.outbox[0])

    def test_waits_for_all_peers(self, proc):
        state = self.drain_outbox(proc, started(proc))
        assert list(proc.enabled_locally(state)) == []  # waiting
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 1), 1)
        )
        assert list(proc.enabled_locally(state)) == []  # still waiting on 2
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 2), 2)
        )
        enabled = list(proc.enabled_locally(state))
        assert enabled and enabled[0].name == ADVANCE

    def test_suspicion_substitutes_for_message(self, proc):
        state = self.drain_outbox(proc, started(proc))
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 1), 1)
        )
        state = proc.apply(state, perfect_output(0, (2,)))
        enabled = list(proc.enabled_locally(state))
        assert enabled and enabled[0].name == ADVANCE

    def test_no_advance_while_outbox_pending(self, proc):
        state = started(proc)
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 1), 1)
        )
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 2), 2)
        )
        enabled = list(proc.enabled_locally(state))
        assert enabled[0].name == "send"  # outbox first

    def test_advance_folds_received(self, proc):
        state = self.drain_outbox(proc, started(proc))
        state = proc.apply(
            state, receive_action(0, ("floodmin", 1, 1), 1)
        )
        state = proc.apply(state, perfect_output(0, (2,)))
        advance = list(proc.enabled_locally(state))[0]
        state = proc.apply(state, advance)
        _failed, core = state
        assert core.round == 2
        assert core.app.value == 0  # min(0, 1)


class TestMessagesAcrossRounds:
    def test_future_round_messages_buffered(self, proc):
        state = TestRoundCompletion().drain_outbox(proc, started(proc))
        state = proc.apply(
            state, receive_action(0, ("floodmin", 2, 1), 1)
        )
        # Round 1 not complete: the round-2 message does not count.
        assert list(proc.enabled_locally(state)) == []
        _failed, core = state
        assert (2, 1, 1) in core.inbox

    def test_foreign_messages_ignored(self, proc):
        state = proc.apply(
            proc.initial_state(), receive_action(0, ("est", 1, 0), 1)
        )
        _failed, core = state
        assert core.inbox == frozenset()


class TestCrashBehavior:
    def test_crash_silences_engine(self, proc):
        state = started(proc)
        state = proc.apply(state, crash_action(0))
        assert list(proc.enabled_locally(state)) == []

    def test_ownership_tags(self, proc):
        assert proc.owns_message(("floodmin", 1, 0))
        assert not proc.owns_message(("est", 1, 0))
        assert not proc.owns_message("floodmin")

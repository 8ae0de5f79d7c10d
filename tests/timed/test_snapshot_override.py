"""The timed automaton's one-pass snapshot matches the generic grouping.

:meth:`TimedDetectorAutomaton.enabled_by_task` builds ``{"clock":
(tick,), "out[i]": (output,), ...}`` directly instead of grouping
``enabled_locally`` by ``task_of``.  On every state of random runs of
the three implementations, with and without crashes and drops, it must
equal the generic :meth:`Automaton.enabled_by_task` item for item, in
order, and ``enabled_in_task`` must agree with it for every task.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.faults import FaultPlan
from repro.ioa.automaton import Automaton
from repro.ioa.scheduler import Injection, Scheduler
from repro.system.fault_pattern import crash_action
from repro.timed.registry import build_automaton

from tests.timed.strategies import bounded_timing, run_seeds

LOCS = (0, 1, 2)
IMPLEMENTATIONS = ("heartbeat", "ping-pong", "leader-lease")


@settings(max_examples=25, deadline=None)
@given(
    impl=st.sampled_from(IMPLEMENTATIONS),
    params=bounded_timing(),
    seed=run_seeds(),
    crashes=st.dictionaries(
        st.sampled_from(LOCS), st.integers(min_value=0, max_value=120)
    ),
    drop_p=st.sampled_from((0.0, 0.3, 1.0)),
)
def test_one_pass_snapshot_equals_generic_grouping(
    impl, params, seed, crashes, drop_p
):
    plan = FaultPlan.uniform(drop_p=drop_p, seed=seed) if drop_p else None
    automaton = build_automaton(
        impl, LOCS, params=params, seed=seed, plan=plan
    )
    execution = Scheduler().run(
        automaton,
        160,
        injections=[
            Injection(step, crash_action(loc))
            for loc, step in sorted(crashes.items())
        ],
    )
    for state in execution.states:
        snapshot = automaton.enabled_by_task(state)
        generic = Automaton.enabled_by_task(automaton, state)
        assert list(snapshot.items()) == list(generic.items())
        for task in automaton.tasks():
            assert automaton.enabled_in_task(state, task) == generic.get(
                task, ()
            )
        assert automaton.enabled_in_task(state, "out[9]") == ()

"""Property-based validation of the step loop's snapshot reuse.

``Scheduler.run`` hands its policy the previous enabled-by-task snapshot
when asked about the state object it last answered for.  On random
automata whose actions either keep the very same state object, return
an equal but new one, or move to another state, a run must equal a
reference loop that asks the automaton afresh every step, and every
snapshot the policy is handed must equal a fresh one, key order
included.  Reuse keys on identity: an equal but new state is computed
afresh.
"""

from hypothesis import given, settings, strategies as st

from repro.ioa.actions import Action
from repro.ioa.automaton import Automaton, FunctionalAutomaton
from repro.ioa.scheduler import (
    AdversarialPolicy,
    Injection,
    RandomPolicy,
    RoundRobinPolicy,
    Scheduler,
    SchedulerPolicy,
)
from repro.ioa.signature import FiniteActionSet, Signature

from tests.conftest import fresh_turns

OUTPUTS = tuple(Action("a", k) for k in range(4))
IN = Action("in", 0)
TASKS = ("t0", "t1", None)
#: How an action's transition builds the next state: the very same
#: object, an equal but new tuple, or a new tuple for a drawn value.
MODES = ("same", "copy", "move")
POLICIES = ("round-robin", "random", "adversarial")


def make_transition(table):
    def transition(state, action):
        mode, target = table[(state[0], action)]
        if mode == "same":
            return state
        if mode == "copy":
            return tuple(list(state))
        return (target,)

    return transition


@st.composite
def machines(draw):
    """A random single-location automaton over states ``(v,)``."""
    n_values = draw(st.integers(min_value=1, max_value=4))
    values = range(n_values)
    # Each value enables a drawn subset of the outputs in a drawn order.
    enabled = {
        v: tuple(draw(st.lists(st.sampled_from(OUTPUTS), unique=True)))
        for v in values
    }
    table = {
        (v, action): (
            draw(st.sampled_from(MODES)),
            draw(st.sampled_from(values)),
        )
        for v in values
        for action in OUTPUTS + (IN,)
    }
    assignment = {action: draw(st.sampled_from(TASKS)) for action in OUTPUTS}
    return FunctionalAutomaton(
        name="m",
        signature=Signature(
            inputs=FiniteActionSet([IN]),
            outputs=FiniteActionSet(OUTPUTS),
        ),
        initial=(0,),
        transition=make_transition(table),
        enabled_fn=lambda state: enabled[state[0]],
        task_names=("t0", "t1"),
        task_assignment=assignment.__getitem__,
    )


def make_policy(name):
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "random":
        return RandomPolicy(seed=7)

    def chooser(state, options, step):
        # Pick the last option every third step, else abstain.
        return options[-1][1][-1] if step % 3 == 0 else None

    return AdversarialPolicy(chooser)


class Spy(SchedulerPolicy):
    """Defers to ``inner``, checking each turn's snapshot against a
    fresh one from ``base`` and recording the turn's state object."""

    def __init__(self, inner, base):
        self.inner = inner
        self.base = base
        self.states = []

    def reset(self):
        self.inner.reset()

    def choose(self, automaton, state, step):
        self.states.append(state)
        handed = automaton.enabled_by_task(state)
        fresh = Automaton.enabled_by_task(self.base, state)
        assert list(handed.items()) == list(fresh.items())
        return self.inner.choose(automaton, state, step)


def reference_run(automaton, policy, max_steps, injections):
    """The scheduler's step semantics with no reuse: the policy sees
    the automaton itself, which computes a snapshot on every ask."""
    policy.reset()
    pending = {}
    for injection in injections:
        pending.setdefault(injection.step, []).append(injection.action)
    state = automaton.initial_state()
    states, actions = [state], []
    for step in range(max_steps):
        due = min((s for s in pending if s <= step), default=None)
        if due is None:
            action = policy.choose(automaton, state, step)
            if action is None:
                if not pending:
                    break
                due = min(pending)
        if due is not None:
            action = pending[due].pop(0)
            if not pending[due]:
                del pending[due]
        state = automaton.apply(state, action)
        states.append(state)
        actions.append(action)
    return states, actions


@settings(max_examples=80, deadline=None)
@given(
    automaton=machines(),
    policy=st.sampled_from(POLICIES),
    injected=st.lists(st.integers(min_value=0, max_value=20), max_size=3),
    max_steps=st.integers(min_value=1, max_value=30),
)
def test_reuse_is_invisible_and_keys_on_identity(
    automaton, policy, injected, max_steps
):
    injections = [Injection(step, IN) for step in injected]
    computed = []
    ask = automaton.enabled_by_task

    def counting(state):
        computed.append(state)
        return ask(state)

    # The run binds the automaton's enabled_by_task when it starts.
    automaton.enabled_by_task = counting
    spy = Spy(make_policy(policy), automaton)
    execution = Scheduler(spy).run(
        automaton, max_steps, injections=injections
    )
    del automaton.enabled_by_task
    states, actions = reference_run(
        automaton, make_policy(policy), max_steps, injections
    )
    assert list(execution.actions) == actions
    assert list(execution.states) == states
    # One computation per turn whose state object is new, equal or not.
    assert len(computed) == fresh_turns(spy.states)

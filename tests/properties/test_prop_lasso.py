"""Property-based validation of lasso-closed runs.

``Scheduler.run`` stops stepping a round-robin run once its (state,
cursor) pair repeats, and replays the cycle up to ``max_steps``.  On
random automata over a handful of states, whose actions keep the very
same state object, return an equal but new one, or move to another
state, and with inputs queued at random steps, every run must equal a
reference loop that steps all the way: same actions and states, same
final cursor, same injected steps and end reason, same canonical trace,
on both engines.  A closed run's lasso must be the reference's first
repeat from the step where the queue emptied, and a run whose pairs
repeat early enough must close.
"""

from hypothesis import given, settings, strategies as st

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.executions import Execution
from repro.ioa.scheduler import Injection, RoundRobinPolicy, Scheduler
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.trace import TraceRecorder

OUTPUTS = tuple(Action("a", k) for k in range(4))
IN = Action("in", 0)
TASKS = ("t0", "t1", "t2", None)
#: How an action's transition builds the next state: the very same
#: object, an equal but new tuple, or a new tuple for a drawn value.
MODES = ("same", "copy", "move")


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
        task_names=("t0", "t1", "t2"),
        task_assignment=assignment.__getitem__,
    )


def reference_run(automaton, max_steps, injections, stop_when):
    """The scheduler's step semantics under round-robin, stepping every
    step.  Returns the states, the actions, the cursor before each step,
    the step where the injection queue emptied (``None`` if it never
    did), the final cursor, the steps an injection supplied and why the
    run ended."""
    policy = RoundRobinPolicy()
    pending = {}
    for injection in injections:
        pending.setdefault(injection.step, []).append(injection.action)
    state = automaton.initial_state()
    states, actions, cursors = [state], [], [policy._cursor]
    quiet = None if pending else 0
    injected = []
    reason = "max-steps"
    for step in range(max_steps):
        if stop_when(state):
            reason = "stopped"
            break
        due = min((s for s in pending if s <= step), default=None)
        if due is None:
            action = policy.choose(automaton, state, step)
            if action is None:
                if not pending:
                    reason = "quiescent"
                    break
                due = min(pending)
        if due is not None:
            action = pending[due].pop(0)
            if not pending[due]:
                del pending[due]
            injected.append(step)
        state = automaton.apply(state, action)
        states.append(state)
        actions.append(action)
        cursors.append(policy._cursor)
        if quiet is None and not pending:
            quiet = step + 1
    return (
        states, actions, cursors, quiet, policy._cursor, tuple(injected), reason
    )


def first_repeat(states, cursors, quiet):
    """``(mu, period)`` of the first (state, cursor) pair from step
    ``quiet`` on that recurs within the run, else ``None``."""
    if quiet is None:
        return None
    seen = {}
    for j in range(quiet, len(states)):
        pair = (states[j], cursors[j])
        if pair in seen:
            return seen[pair], j - seen[pair]
        seen[pair] = j
    return None


@settings(max_examples=150, deadline=None)
@given(
    automaton=machines(),
    injected=st.lists(st.integers(min_value=0, max_value=25), max_size=3),
    max_steps=st.integers(min_value=1, max_value=80),
    stop_value=st.sampled_from([None, 1, 2, 3]),
    compiled=st.booleans(),
)
def test_closed_runs_equal_the_stepped_run(
    automaton, injected, max_steps, stop_value, compiled
):
    injections = [Injection(step, IN) for step in injected]

    def stop_when(state):
        return state[0] == stop_value

    policy = RoundRobinPolicy()
    execution = Scheduler(policy, compiled=compiled).run(
        automaton, max_steps, injections=injections, stop_when=stop_when
    )
    states, actions, cursors, quiet, cursor, steps_injected, reason = (
        reference_run(automaton, max_steps, injections, stop_when)
    )
    assert list(execution.actions) == actions
    assert list(execution.states) == states
    assert policy._cursor == cursor
    assert execution.injected == steps_injected
    assert execution.reason == reason
    recorder, reference = TraceRecorder(), TraceRecorder()
    recorder.record_run("m", max_steps, execution)
    reference.record_run(
        "m",
        max_steps,
        Execution(states, actions, injected=steps_injected, reason=reason),
    )
    assert recorder.canonical_jsonl_lines() == reference.canonical_jsonl_lines()
    repeat = first_repeat(states, cursors, quiet)
    if execution.lasso is not None:
        assert execution.lasso == repeat
    elif repeat is not None:
        # Brent's search lays its tortoise at the quiet step and doubles
        # its window from there; it finds a cycle by this step.
        mu, period = repeat
        found_by = quiet + 2 * max(mu - quiet + 2, period) + period
        assert found_by > len(actions), (repeat, quiet, len(actions))

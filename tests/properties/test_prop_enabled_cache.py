"""Property-based validation of the composition's enabled-cache layer.

The dispatch maps, per-component enabled cache and incremental snapshots
(:mod:`repro.ioa.composition`) are pure accelerations: on randomized
compositions driven through randomized fired-action sequences — including
injected crash events, whose participants' pieces change while everyone
else's stay cached — the cached ``enabled_by_task``/``enabled_in_task``/
``enabled`` answers must agree exactly with brute-force re-enumeration
from ``enabled_locally`` after every step, and a cache-disabled twin
composition must follow the identical state trajectory.
"""

from hypothesis import given, settings, strategies as st

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import Composition, set_enabled_cache_default
from repro.ioa.signature import FiniteActionSet, Signature
from repro.obs.prof import cache_counter
from repro.system.crash import CrashAutomaton
from repro.system.fault_pattern import crash_action

MAX_COMPONENTS = 3
MAX_STATES = 4


def brute_force_snapshot(composition, state):
    """The pre-cache formula, computed straight from ``enabled_locally``
    with no memo in the path: components in composition order, each
    one's tasks in first-enabled order — the key order a full merge of
    the per-component groups produces."""
    snapshot = {}
    for component in composition.components:
        piece = composition.component_state(state, component)
        for action in component.enabled_locally(piece):
            local = component.task_of(action)
            if local is None:
                continue
            task = f"{component.name}{composition.TASK_SEPARATOR}{local}"
            snapshot[task] = snapshot.get(task, ()) + (action,)
    return snapshot


@st.composite
def random_systems(draw):
    """A random compatible composition plus a random walk plan.

    Each component owns a few output actions split over one or two tasks,
    reacts to every other component's outputs and to crash events, and
    enables a state-dependent subset of its outputs in a state-dependent
    order.  A crash automaton
    rides along so walks can inject crash actions (obligation-free, always
    enabled, never in any task snapshot).
    """
    n_components = draw(st.integers(min_value=2, max_value=MAX_COMPONENTS))
    locations = tuple(range(n_components))
    crashes = [crash_action(i) for i in locations]
    specs = []
    for i in range(n_components):
        n_actions = draw(st.integers(min_value=1, max_value=3))
        specs.append([Action(f"a{i}.{j}", i) for j in range(n_actions)])

    n_states = draw(st.integers(min_value=2, max_value=MAX_STATES))
    components = []
    for i, own in enumerate(specs):
        foreign = [a for k, acts in enumerate(specs) if k != i for a in acts]
        observed = own + foreign + crashes
        table = {
            (s, a.name, a.location): draw(
                st.integers(min_value=0, max_value=n_states - 1)
            )
            for s in range(n_states)
            for a in observed
        }
        # A state-dependent subset, in a state-dependent order: equal
        # groups may then differ only in their key order.
        enabled = {
            s: tuple(
                a for a in draw(st.permutations(own)) if draw(st.booleans())
            )
            for s in range(n_states)
        }
        n_tasks = draw(st.integers(min_value=1, max_value=2))
        task_names = tuple(f"t{k}" for k in range(n_tasks))
        assign = {
            a.name: task_names[
                draw(st.integers(min_value=0, max_value=n_tasks - 1))
            ]
            for a in own
        }
        components.append(
            FunctionalAutomaton(
                name=f"c{i}",
                signature=Signature(
                    inputs=FiniteActionSet(foreign + crashes),
                    outputs=FiniteActionSet(own),
                ),
                initial=draw(st.integers(min_value=0, max_value=n_states - 1)),
                transition=lambda s, a, table=table: table[
                    (s, a.name, a.location)
                ],
                enabled_fn=lambda s, enabled=enabled: enabled[s],
                task_names=task_names,
                task_assignment=lambda a, assign=assign: assign[a.name],
            )
        )
    components.append(CrashAutomaton(locations))
    steps = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # fire a crash event this step?
                st.integers(min_value=0, max_value=10**6),  # choice seed
            ),
            min_size=1,
            max_size=12,
        )
    )
    return components, crashes, steps


def make_pair(components):
    """Cached composition and its brute-force twin over the same
    (stateless, shareable) component objects."""
    cached = Composition(components, name="sys")
    previous = set_enabled_cache_default(False)
    try:
        uncached = Composition(components, name="sys")
    finally:
        set_enabled_cache_default(previous)
    return cached, uncached


@settings(max_examples=30, deadline=None)
@given(system=random_systems())
def test_cached_enabled_agrees_with_brute_force(system):
    components, crashes, steps = system
    cached, uncached = make_pair(components)
    state = cached.initial_state()
    assert state == uncached.initial_state()

    for want_crash, choice in steps:
        snapshot = cached.enabled_by_task(state)
        # 1. The per-step snapshot equals brute-force re-enumeration...
        assert snapshot == brute_force_snapshot(cached, state)
        # ...and the cache-disabled twin computes the same thing.
        assert snapshot == uncached.enabled_by_task(state)
        # 2. Per-task queries agree with the snapshot on every task,
        #    including the ones the snapshot omits as empty.
        for task in cached.tasks():
            assert cached.enabled_in_task(state, task) == snapshot.get(
                task, ()
            )
            assert uncached.enabled_in_task(state, task) == snapshot.get(
                task, ()
            )
        # 3. Crash actions are always fireable but never in any task.
        for crash in crashes:
            assert cached.enabled(state, crash)
            assert cached.task_of(crash) is None
        assert not any(
            crash in actions
            for actions in snapshot.values()
            for crash in [crashes[0]]
        )

        # Fire one action — an injected crash or a task-enabled action —
        # on both compositions and check they stay in lockstep.
        fireable = sorted(
            {a for actions in snapshot.values() for a in actions},
            key=lambda a: (a.name, a.location),
        )
        if want_crash or not fireable:
            action = crashes[choice % len(crashes)]
        else:
            action = fireable[choice % len(fireable)]
        assert cached.enabled(state, action)
        assert uncached.enabled(state, action)
        assert cached.task_of(action) == uncached.task_of(action)
        assert cached.participants(action) == uncached.participants(action)
        next_state = cached.apply(state, action)
        assert next_state == uncached.apply(state, action)
        state = next_state

    # Final-state sanity: one more full agreement check after the walk.
    assert cached.enabled_by_task(state) == brute_force_snapshot(
        cached, state
    )


@settings(max_examples=15, deadline=None)
@given(system=random_systems())
def test_memo_reuse_never_leaks_between_states(system):
    """Replaying the same walk on a fresh composition (cold caches) gives
    identical snapshots at every step: warm memos carry no hidden state."""
    components, crashes, steps = system
    warm, _ = make_pair(components)
    replay = Composition(components, name="sys")

    state = warm.initial_state()
    trail = []
    for want_crash, choice in steps:
        snapshot = warm.enabled_by_task(state)
        trail.append((state, snapshot))
        fireable = sorted(
            {a for actions in snapshot.values() for a in actions},
            key=lambda a: (a.name, a.location),
        )
        if want_crash or not fireable:
            action = crashes[choice % len(crashes)]
        else:
            action = fireable[choice % len(fireable)]
        state = warm.apply(state, action)

    for visited, snapshot in trail:
        assert replay.enabled_by_task(visited) == snapshot


def fire(composition, state, crashes, choice, crash):
    """Apply a crash or a task-enabled action of ``state``, picked by
    ``choice`` from the brute-force enabled set (no snapshot query)."""
    fireable = sorted(
        {
            a
            for actions in brute_force_snapshot(composition, state).values()
            for a in actions
        },
        key=lambda a: (a.name, a.location),
    )
    if crash or not fireable:
        action = crashes[choice % len(crashes)]
    else:
        action = fireable[choice % len(fireable)]
    return composition.apply(state, action)


def checked_snapshot(composition, state):
    snapshot = composition.enabled_by_task(state)
    assert list(snapshot.items()) == list(
        brute_force_snapshot(composition, state).items()
    )
    return snapshot


MOVES = ("patch", "older", "crash", "repeat")


@st.composite
def mixed_walks(draw):
    components, crashes, _steps = draw(random_systems())
    moves = draw(
        st.lists(
            st.tuples(
                st.sampled_from(MOVES),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=16,
        )
    )
    return components, crashes, moves


@settings(max_examples=40, deadline=None)
@given(walk=mixed_walks())
def test_incremental_snapshots_match_brute_force(walk):
    """Walks mixing the snapshot's cases: apply from the snapshotted
    state (patch), apply from an older state as the tree builder does
    (full merge), injected crash inputs (patch), and repeated queries of
    one state (full merges).  Every snapshot equals brute force, key
    order included, and ``composition.snapshot`` books each case."""
    components, crashes, moves = walk
    cached, uncached = make_pair(components)
    counter = cache_counter("composition.snapshot")
    state = cached.initial_state()
    checked_snapshot(cached, state)
    visited = [state]
    for move, choice in moves:
        hits, misses = counter.hits, counter.misses
        if move == "repeat":
            # An equal but distinct state object gets the full merge, and
            # so does every repeated ask of the original: handing back
            # the same dict is the step loop's job
            # (tests/ioa/test_snapshot_reuse.py).
            checked_snapshot(cached, tuple(list(state)))
            checked_snapshot(cached, state)
            checked_snapshot(cached, state)
            assert (counter.hits - hits, counter.misses - misses) == (0, 3)
            continue
        if move == "older" and len(visited) > 1:
            source = visited[choice % (len(visited) - 1)]
            expected = (0, 1)
        else:
            source = state
            expected = (1, 0)
        state = fire(cached, source, crashes, choice, move == "crash")
        assert state == fire(uncached, source, crashes, choice, move == "crash")
        snapshot = checked_snapshot(cached, state)
        assert (counter.hits - hits, counter.misses - misses) == expected
        assert snapshot == uncached.enabled_by_task(state)
        visited.append(state)


@settings(max_examples=15, deadline=None)
@given(system=random_systems())
def test_uncached_queries_return_distinct_dicts(system):
    """With caching off no snapshot is kept: every query merges afresh."""
    components, crashes, steps = system
    _, uncached = make_pair(components)
    state = uncached.initial_state()
    for want_crash, choice in steps:
        first = uncached.enabled_by_task(state)
        second = uncached.enabled_by_task(state)
        assert first is not second
        assert list(first.items()) == list(second.items())
        state = fire(uncached, state, crashes, choice, want_crash)

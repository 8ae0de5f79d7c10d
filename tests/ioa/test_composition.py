"""Tests for repro.ioa.composition: synchronization, projection, tasks."""

import re

import pytest

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.composition import (
    Composition,
    CompositionError,
    compose,
    enabled_cache_default,
    set_enabled_cache_default,
)
from repro.ioa.executions import apply_schedule
from repro.ioa.signature import (
    FiniteActionSet,
    PredicateActionSet,
    Signature,
)
from repro.obs.prof import cache_counter

PING = Action("ping", 0)
PONG = Action("pong", 1)


def brute_force(components):
    """A composition built with the enabled cache off: the predicate
    scan every cached answer is checked against."""
    previous = set_enabled_cache_default(False)
    try:
        return Composition(components)
    finally:
        set_enabled_cache_default(previous)


def pinger():
    """Outputs ping when its bit is 0; receiving pong resets the bit."""
    return FunctionalAutomaton(
        name="pinger",
        signature=Signature(
            inputs=FiniteActionSet([PONG]), outputs=FiniteActionSet([PING])
        ),
        initial=0,
        transition=lambda s, a: 1 if a == PING else 0,
        enabled_fn=lambda s: [PING] if s == 0 else [],
    )


def ponger():
    """Outputs pong after seeing ping."""
    return FunctionalAutomaton(
        name="ponger",
        signature=Signature(
            inputs=FiniteActionSet([PING]), outputs=FiniteActionSet([PONG])
        ),
        initial=0,
        transition=lambda s, a: 1 if a == PING else 0,
        enabled_fn=lambda s: [PONG] if s == 1 else [],
    )


class TestCompositionConstruction:
    def test_requires_components(self):
        with pytest.raises(CompositionError):
            Composition([])

    def test_requires_unique_names(self):
        with pytest.raises(CompositionError, match="unique"):
            Composition([pinger(), pinger()])

    def test_detects_shared_outputs(self):
        with pytest.raises(CompositionError, match="output of several"):
            Composition([pinger(), pinger().__class__(
                name="pinger2",
                signature=Signature(outputs=FiniteActionSet([PING])),
                initial=0,
                transition=lambda s, a: s,
                enabled_fn=lambda s: [],
            )])

    def test_signature_classification(self):
        c = compose(pinger(), ponger())
        # ping is an output of pinger: matched input becomes composition
        # output, not input.
        assert c.signature.is_output(PING)
        assert c.signature.is_output(PONG)
        assert not c.signature.is_input(PING)


class TestCompositionDynamics:
    def test_synchronized_step(self):
        c = compose(pinger(), ponger())
        s0 = c.initial_state()
        assert s0 == (0, 0)
        s1 = c.apply(s0, PING)
        assert s1 == (1, 1)  # both observed ping
        s2 = c.apply(s1, PONG)
        assert s2 == (0, 0)

    def test_enabled_locally_union(self):
        c = compose(pinger(), ponger())
        assert set(c.enabled_locally((0, 0))) == {PING}
        assert set(c.enabled_locally((1, 1))) == {PONG}

    def test_enabled_checks_owner(self):
        c = compose(pinger(), ponger())
        assert c.enabled((0, 0), PING)
        assert not c.enabled((1, 1), PING)

    def test_ping_pong_alternation(self):
        c = compose(pinger(), ponger())
        e = apply_schedule(c, [PING, PONG, PING, PONG])
        assert e.final_state == (0, 0)

    def test_owner_of(self):
        c = compose(pinger(), ponger())
        assert c.owner_of(PING).name == "pinger"
        assert c.owner_of(PONG).name == "ponger"
        assert c.owner_of(Action("other", 9)) is None


class TestCompositionTasks:
    def test_namespaced_tasks(self):
        c = compose(pinger(), ponger())
        assert c.tasks() == ("pinger:main", "ponger:main")

    def test_task_of(self):
        c = compose(pinger(), ponger())
        assert c.task_of(PING) == "pinger:main"
        assert c.task_of(PONG) == "ponger:main"

    def test_enabled_in_task(self):
        c = compose(pinger(), ponger())
        assert c.enabled_in_task((0, 0), "pinger:main") == (PING,)
        assert c.enabled_in_task((0, 0), "ponger:main") == ()

    def test_split_task(self):
        c = compose(pinger(), ponger())
        component, local = c.split_task("ponger:main")
        assert component.name == "ponger"
        assert local == "main"
        with pytest.raises(KeyError):
            c.split_task("nobody:main")


class TestEnabledCacheLayer:
    """The dispatch maps and per-component enabled cache are pure
    accelerations: every observable must match the brute-force path."""

    def _states(self):
        return [(0, 0), (1, 1), (1, 0), (0, 1)]

    def test_cached_matches_uncached_everywhere(self):
        cached = compose(pinger(), ponger())
        uncached = brute_force([pinger(), ponger()])
        for state in self._states():
            assert cached.enabled_by_task(state) == (
                uncached.enabled_by_task(state)
            )
            for task in cached.tasks():
                assert cached.enabled_in_task(state, task) == (
                    uncached.enabled_in_task(state, task)
                )
            for action in (PING, PONG):
                assert cached.enabled(state, action) == (
                    uncached.enabled(state, action)
                )
                if cached.enabled(state, action):
                    assert cached.apply(state, action) == (
                        uncached.apply(state, action)
                    )
        for action in (PING, PONG):
            assert cached.owner_of(action) is uncached.owner_of(action) or (
                cached.owner_of(action).name == uncached.owner_of(action).name
            )
            assert cached.task_of(action) == uncached.task_of(action)
            assert cached.participants(action) == uncached.participants(action)

    def test_snapshot_covers_all_enabled_tasks(self):
        c = compose(pinger(), ponger())
        assert c.enabled_by_task((0, 0)) == {"pinger:main": (PING,)}
        assert c.enabled_by_task((1, 1)) == {"ponger:main": (PONG,)}
        assert c.enabled_by_task((1, 0)) == {}

    def test_repeated_queries_hit_memo(self):
        c = compose(pinger(), ponger())
        first = c.enabled_by_task((0, 0))
        assert c.enabled_by_task((0, 0)) == first
        assert len(c._enabled_memo) == 2  # one entry per component piece
        c.enabled_by_task((1, 1))
        assert len(c._enabled_memo) == 4

    def test_repeated_state_returns_the_same_snapshot(self):
        """A repeated ask gets the same snapshot by value, from a full
        merge.  Handing a policy the very same dict is the step loop's
        job (tests/ioa/test_snapshot_reuse.py)."""
        c = compose(pinger(), ponger())
        counter = cache_counter("composition.snapshot")
        s0 = c.initial_state()
        first = c.enabled_by_task(s0)
        for state in (s0, tuple(list(s0))):
            hits, misses = counter.hits, counter.misses
            again = c.enabled_by_task(state)
            assert list(again.items()) == list(first.items())
            assert (counter.hits - hits, counter.misses - misses) == (0, 1)

    def test_patched_snapshot_keeps_full_merge_key_order(self):
        """A participant whose group keeps its items but reorders its
        tasks must not carry the previous snapshot over."""
        a, b, flip = Action("a", 0), Action("b", 0), Action("flip", 1)
        flipper = FunctionalAutomaton(
            name="flipper",
            signature=Signature(
                inputs=FiniteActionSet([flip]),
                outputs=FiniteActionSet([a, b]),
            ),
            initial=0,
            transition=lambda s, act: 1 - s if act == flip else s,
            enabled_fn=lambda s: [a, b] if s == 0 else [b, a],
            task_names=("ta", "tb"),
            task_assignment=lambda act: "ta" if act == a else "tb",
        )
        switch = FunctionalAutomaton(
            name="switch",
            signature=Signature(outputs=FiniteActionSet([flip])),
            initial=0,
            transition=lambda s, act: s,
            enabled_fn=lambda s: [flip],
        )
        c = Composition([flipper, switch])
        s0 = c.initial_state()
        assert list(c.enabled_by_task(s0)) == [
            "flipper:ta", "flipper:tb", "switch:main"
        ]
        s1 = c.apply(s0, flip)
        assert list(c.enabled_by_task(s1)) == [
            "flipper:tb", "flipper:ta", "switch:main"
        ]

    def test_dispatch_memoizes_participants(self):
        c = compose(pinger(), ponger())
        c.apply((0, 0), PING)
        assert PING in c._dispatch_memo
        owner_index, participants = c._dispatch_memo[PING]
        assert owner_index == 0
        assert participants == (0, 1)  # ping synchronizes both

    def test_uncached_composition_keeps_memos_empty(self):
        c = brute_force([pinger(), ponger()])
        c.apply((0, 0), PING)
        c.enabled_by_task((0, 0))
        c.task_of(PING)
        assert not c._dispatch_memo
        assert not c._enabled_memo
        assert not c._task_memo

    def test_unknown_action_dispatch_not_an_error(self):
        c = compose(pinger(), ponger())
        other = Action("zzz", 9)
        assert c.owner_of(other) is None
        assert c.participants(other) == []
        assert c.task_of(other) is None
        assert not c.enabled((0, 0), other)

    def test_ambiguous_owner_raises_every_time(self):
        """The lazy one-owner check (predicate signatures escape the
        constructor's enumerable scan) must not be memoized away."""
        from repro.ioa.signature import PredicateActionSet

        shared = Action("shared", 0)

        def claims_shared(name):
            return FunctionalAutomaton(
                name=name,
                signature=Signature(
                    outputs=PredicateActionSet(
                        lambda a: a.name == "shared", "shared claimer"
                    )
                ),
                initial=0,
                transition=lambda s, a: s,
                enabled_fn=lambda s: [],
            )

        c = Composition([claims_shared("left"), claims_shared("right")])
        for _ in range(2):
            with pytest.raises(CompositionError, match="several"):
                c.apply((0, 0), shared)
        assert shared not in c._dispatch_memo

    def test_set_enabled_cache_default_round_trip(self):
        previous = set_enabled_cache_default(False)
        try:
            assert enabled_cache_default() is False
            c = compose(pinger(), ponger())
            assert not c._use_cache
            c.enabled_by_task((0, 0))
            assert not c._enabled_memo
        finally:
            set_enabled_cache_default(previous)
        assert enabled_cache_default() is previous

    def test_cache_cap_clears_memo(self):
        c = compose(pinger(), ponger())
        c.ENABLED_CACHE_CAP = 2
        for state in self._states():
            c.enabled_by_task(state)
        assert len(c._enabled_memo) <= 2
        # Behaviour is still correct after the clear.
        assert c.enabled_by_task((0, 0)) == {"pinger:main": (PING,)}


class TestDispatchClassification:
    """The first-sighting dispatch scan classifies each component once:
    outputs and internals make it the owner (and a participant), inputs
    a participant."""

    SAY = Action("say", 0)
    TICK = Action("tick", 0)
    POKE = Action("poke", 1)
    WAVE = Action("wave", 2)

    def mixed(self, use_cache=True):
        speaker = FunctionalAutomaton(
            name="speaker",
            signature=Signature(
                inputs=PredicateActionSet(lambda a: a.name == "poke", "pokes"),
                outputs=PredicateActionSet(lambda a: a.name == "say", "says"),
                internals=FiniteActionSet([self.TICK]),
            ),
            initial=0,
            transition=lambda s, a: s + 1,
            enabled_fn=lambda s: [self.SAY, self.TICK],
        )
        listener = FunctionalAutomaton(
            name="listener",
            signature=Signature(
                inputs=PredicateActionSet(
                    lambda a: a.name in ("say", "poke"), "says and pokes"
                ),
            ),
            initial=0,
            transition=lambda s, a: s + 1,
            enabled_fn=lambda s: [],
        )
        bystander = FunctionalAutomaton(
            name="bystander",
            signature=Signature(outputs=FiniteActionSet([self.WAVE])),
            initial=0,
            transition=lambda s, a: s,
            enabled_fn=lambda s: [self.WAVE],
        )
        components = [speaker, listener, bystander]
        return Composition(components) if use_cache else brute_force(components)

    @pytest.mark.parametrize("use_cache", [True, False])
    def test_owner_and_participants_by_kind(self, use_cache):
        c = self.mixed(use_cache)
        for _ in range(2):  # first sighting, then the memo (if any)
            # Pure input: no owner, every component listening for it.
            assert c.owner_of(self.POKE) is None
            assert c.participants(self.POKE) == [0, 1]
            # Output: owned by the speaker, synchronized with the listener.
            assert c.owner_of(self.SAY).name == "speaker"
            assert c.participants(self.SAY) == [0, 1]
            # Internal: owned by the speaker alone.
            assert c.owner_of(self.TICK).name == "speaker"
            assert c.participants(self.TICK) == [0]
            assert c.owner_of(self.WAVE).name == "bystander"
            assert c.participants(self.WAVE) == [2]
        assert bool(c._dispatch_memo) is use_cache

    def test_apply_advances_exactly_the_participants(self):
        c = self.mixed()
        s0 = c.initial_state()
        assert c.apply(s0, self.SAY) == (1, 1, 0)
        assert c.apply(s0, self.TICK) == (1, 0, 0)
        assert c.apply(s0, self.POKE) == (1, 1, 0)

    def test_predicate_owned_by_two_components_raises_naming_both(self):
        def claimer(name, kind, keys):
            claims = PredicateActionSet(
                lambda a: a.name == "shared", "shared claimer", keys=keys
            )
            return FunctionalAutomaton(
                name=name,
                signature=Signature(**{kind: claims}),
                initial=0,
                transition=lambda s, a: s,
                enabled_fn=lambda s: [],
            )

        shared = Action("shared", 0)
        message = re.escape(
            f"action {shared} is locally controlled by several "
            "components: ['left', 'right']"
        )
        declared = [("shared", 0)]
        # Both owners undeclared, both declared, then one of each: the
        # key index finds both owners, in component order, every time.
        for left_keys, right_keys in (
            (None, None),
            (declared, declared),
            (declared, None),
            (None, declared),
        ):
            # Predicate signatures escape the constructor's enumerable check.
            c = Composition(
                [
                    claimer("left", "outputs", left_keys),
                    claimer("right", "internals", right_keys),
                ]
            )
            uses = (
                lambda: c.apply((0, 0), shared),
                lambda: c.owner_of(shared),
                lambda: c.participants(shared),
                lambda: c.task_of(shared),
                lambda: c.enabled((0, 0), shared),
            )
            for _ in range(2):
                for use in uses:
                    with pytest.raises(CompositionError, match=message):
                        use()
            assert shared not in c._dispatch_memo
            assert shared not in c._task_memo


class TestProjection:
    def test_project_execution(self):
        """Theorem 8.1: the projection of an execution is an execution of
        the component."""
        p1, p2 = pinger(), ponger()
        c = compose(p1, p2)
        e = apply_schedule(c, [PING, PONG, PING])
        proj = c.project_execution(e, p1)
        assert proj.is_execution_of(p1)
        proj2 = c.project_execution(e, p2)
        assert proj2.is_execution_of(p2)

    def test_component_state(self):
        p1, p2 = pinger(), ponger()
        c = compose(p1, p2)
        state = c.apply(c.initial_state(), PING)
        assert c.component_state(state, p1) == 1
        assert c.component_state(state, p2) == 1

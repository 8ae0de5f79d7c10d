"""Tests for repro.ioa.executions: sequences, projections, executions."""

import pytest

from repro.ioa.actions import Action, BOTTOM
from repro.ioa.executions import (
    ActionSequence,
    Execution,
    Trace,
    apply_schedule,
)
from repro.ioa.signature import FiniteActionSet, Signature
from repro.ioa.automaton import FunctionalAutomaton

A = Action("a", 0)
B = Action("b", 1)
C = Action("c", 0)


class TestActionSequence:
    def test_paper_indexing(self):
        t = ActionSequence([A, B])
        assert t.at(1) == A
        assert t.at(2) == B
        assert t.at(3) is BOTTOM
        assert t.at(0) is BOTTOM

    def test_projection(self):
        t = ActionSequence([A, B, C])
        assert list(t.project(lambda a: a.location == 0)) == [A, C]
        assert list(t.project([B])) == [B]
        assert list(t.project(FiniteActionSet([A, B]))) == [A, B]

    def test_projection_preserves_type(self):
        t = Trace([A, B])
        assert isinstance(t.project([A]), Trace)

    def test_concat(self):
        t = ActionSequence([A]).concat([B])
        assert list(t) == [A, B]

    def test_prefix_relation(self):
        assert ActionSequence([A]).is_prefix_of(ActionSequence([A, B]))
        assert not ActionSequence([B]).is_prefix_of(ActionSequence([A, B]))

    def test_subsequence_relation(self):
        big = ActionSequence([A, B, C])
        assert ActionSequence([A, C]).is_subsequence_of(big)
        assert not ActionSequence([C, A]).is_subsequence_of(big)

    def test_equality_with_lists(self):
        assert ActionSequence([A, B]) == [A, B]
        assert ActionSequence([A]) == ActionSequence([A])

    def test_slicing(self):
        t = ActionSequence([A, B, C])
        assert list(t[1:]) == [B, C]
        assert t[0] == A

    def test_first_index_of(self):
        t = ActionSequence([A, B, C])
        assert t.first_index_of(lambda a: a.location == 1) == 1
        assert t.first_index_of(lambda a: a.name == "zzz") is None


def make_machine():
    """Automaton: output `a` toggles a bit; input `b` always applicable."""
    return FunctionalAutomaton(
        name="m",
        signature=Signature(
            inputs=FiniteActionSet([B]), outputs=FiniteActionSet([A])
        ),
        initial=0,
        transition=lambda s, act: 1 - s if act == A else s,
        enabled_fn=lambda s: [A] if s == 0 else [],
    )


class TestExecution:
    def test_null_execution(self):
        e = Execution([0], [])
        assert e.is_null()
        assert e.first_state == e.final_state == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Execution([0, 1], [])

    def test_steps(self):
        e = Execution([0, 1, 0], [A, A])
        assert list(e.steps()) == [(0, A, 1), (1, A, 0)]

    def test_schedule_and_trace(self):
        m = make_machine()
        e = Execution([0, 1], [A])
        assert list(e.schedule()) == [A]
        assert list(e.trace(m)) == [A]

    def test_trace_filters_non_external(self):
        m = make_machine()
        internal = Action("hidden", 0)
        e = Execution([0, 0, 1], [internal, A])
        assert list(e.trace(m)) == [A]

    def test_prefix(self):
        e = Execution([0, 1, 0], [A, A])
        p = e.prefix(1)
        assert len(p) == 1
        assert p.final_state == 1
        with pytest.raises(ValueError):
            e.prefix(5)

    def test_concat(self):
        e1 = Execution([0, 1], [A])
        e2 = Execution([1, 1], [B])
        joined = e1.concat(e2)
        assert len(joined) == 2
        assert joined.final_state == 1

    def test_concat_requires_matching_states(self):
        e1 = Execution([0, 1], [A])
        e2 = Execution([0, 0], [B])
        with pytest.raises(ValueError):
            e1.concat(e2)

    def test_extend(self):
        e = Execution([0], []).extend(A, 1)
        assert len(e) == 1
        assert e.final_state == 1

    def test_lasso_is_a_note_not_part_of_the_value(self):
        closed = Execution([0, 1, 0, 1], [A, A, A], lasso=(0, 2))
        plain = Execution([0, 1, 0, 1], [A, A, A])
        assert closed.lasso == (0, 2)
        assert plain.lasso is None
        assert closed == plain
        assert hash(closed) == hash(plain)
        with pytest.raises(AttributeError):
            closed.lasso = None

    def test_derived_executions_drop_the_lasso(self):
        closed = Execution([0, 1, 0], [A, A], lasso=(0, 2))
        assert closed.prefix(2).lasso is None
        assert closed.concat(Execution([0, 1], [A])).lasso is None
        assert closed.extend(A, 1).lasso is None

    def test_injected_and_reason_are_notes_not_part_of_the_value(self):
        noted = Execution([0, 1, 0], [A, B], injected=(1,), reason="quiescent")
        plain = Execution([0, 1, 0], [A, B])
        assert (noted.injected, noted.reason) == ((1,), "quiescent")
        assert (plain.injected, plain.reason) == ((), None)
        assert noted == plain
        assert hash(noted) == hash(plain)
        with pytest.raises(AttributeError):
            noted.injected = ()
        with pytest.raises(AttributeError):
            noted.reason = None

    def test_derived_executions_drop_injected_and_reason(self):
        noted = Execution([0, 1, 0], [A, B], injected=(0,), reason="stopped")
        for derived in (
            noted.prefix(1),
            noted.concat(Execution([0, 1], [A])),
            noted.extend(A, 1),
        ):
            assert (derived.injected, derived.reason) == ((), None)

    def test_is_execution_of(self):
        m = make_machine()
        good = Execution([0, 1], [A])
        assert good.is_execution_of(m)
        bad_state = Execution([0, 0], [A])
        assert not bad_state.is_execution_of(m)
        not_enabled = Execution([1, 0], [A])
        assert not not_enabled.is_execution_of(m)


class TestApplySchedule:
    def test_applicable_schedule(self):
        m = make_machine()
        e = apply_schedule(m, [A, B])
        assert e.final_state == 1
        assert list(e.schedule()) == [A, B]

    def test_inapplicable_schedule_raises(self):
        m = make_machine()
        with pytest.raises(ValueError, match="not applicable"):
            apply_schedule(m, [A, A])  # second `a` disabled in state 1

    def test_from_custom_start(self):
        m = make_machine()
        e = apply_schedule(m, [B], start=1)
        assert e.first_state == 1

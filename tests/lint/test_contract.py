"""Mutation tests for the semantic contract checks (REPROC01-REPROC06).

For every contract condition there is a fixture automaton violating
exactly it — the test asserts that check (and only that check) fires —
plus the acceptance fixture: one automaton that is malformed in two
independent ways and must be rejected with BOTH violations named.
"""

from repro.ioa.actions import Action
from repro.ioa.automaton import FunctionalAutomaton
from repro.ioa.signature import FiniteActionSet, Signature
from repro.lint.contract import (
    ContractSubject,
    check_automaton_contract,
    check_picklable,
    default_contract_subjects,
    default_spec_subjects,
    run_contract_checks,
)

IN = Action("poke", 0)
OUT = Action("emit", 0)
OUT2 = Action("emit2", 0)


def codes_of(report):
    return sorted({f.code for f in report.findings})


def well_formed_machine():
    """A tiny automaton satisfying every contract condition."""
    return FunctionalAutomaton(
        name="ok",
        signature=Signature(
            inputs=FiniteActionSet([IN]),
            outputs=FiniteActionSet([OUT]),
        ),
        initial=0,
        transition=lambda s, a: min(s + 1, 2),
        enabled_fn=lambda s: [OUT] if s < 2 else [],
    )


class TestCleanAutomaton:
    def test_no_findings(self):
        report = check_automaton_contract(well_formed_machine(), name="ok")
        assert report.ok, [f.format_text() for f in report.findings]
        assert report.subjects_checked == 1
        assert report.truncated_subjects == []


class TestSignatureDisjointness:
    def test_overlap_rejected_as_c01_only(self):
        bad = FunctionalAutomaton(
            name="overlap",
            signature=Signature(
                inputs=FiniteActionSet([IN]),
                outputs=FiniteActionSet([IN, OUT]),  # IN in both sets
            ),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
        )
        report = check_automaton_contract(bad, name="overlap")
        assert codes_of(report) == ["REPROC01"]
        (finding,) = [f for f in report.findings if f.code == "REPROC01"]
        assert "disjoint" in finding.message
        assert "[overlap]" in finding.message


class TestInputEnabledness:
    def test_disabled_input_rejected_as_c02_only(self):
        class DisablesInput(FunctionalAutomaton):
            def enabled(self, state, action):
                if action == IN:
                    return state == 0  # inputs must be enabled everywhere
                return super().enabled(state, action)

        bad = DisablesInput(
            name="deaf",
            signature=Signature(
                inputs=FiniteActionSet([IN]),
                outputs=FiniteActionSet([OUT]),
            ),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
        )
        report = check_automaton_contract(bad, name="deaf")
        assert codes_of(report) == ["REPROC02"]
        assert "disabled in" in report.findings[0].message

    def test_apply_raising_on_input_rejected_as_c02(self):
        def transition(s, a):
            if a == IN and s > 0:
                raise ValueError("unhandled input")
            return min(s + 1, 2)

        bad = FunctionalAutomaton(
            name="brittle",
            signature=Signature(
                inputs=FiniteActionSet([IN]),
                outputs=FiniteActionSet([OUT]),
            ),
            initial=0,
            transition=transition,
            enabled_fn=lambda s: [OUT] if s < 2 else [],
        )
        report = check_automaton_contract(bad, name="brittle")
        assert "REPROC02" in codes_of(report)


class TestTaskPartition:
    def test_ghost_task_rejected_as_c03_only(self):
        bad = FunctionalAutomaton(
            name="ghost",
            signature=Signature(
                inputs=FiniteActionSet([IN]),
                outputs=FiniteActionSet([OUT]),
            ),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
            task_names=("main", "ghost"),
            task_assignment=lambda a: "main",
        )
        report = check_automaton_contract(bad, name="ghost")
        assert codes_of(report) == ["REPROC03"]
        assert "'ghost'" in report.findings[0].message

    def test_undeclared_task_rejected_as_c03_only(self):
        bad = FunctionalAutomaton(
            name="rogue",
            signature=Signature(outputs=FiniteActionSet([OUT])),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
            task_names=("main",),
            task_assignment=lambda a: "rogue",  # escapes tasks()
        )
        report = check_automaton_contract(bad, name="rogue")
        assert codes_of(report) == ["REPROC03"]
        assert "'rogue'" in report.findings[0].message

    def test_obligation_free_automaton_is_fine(self):
        # tasks() == () with task_of -> None is the crash-automaton
        # pattern and must not be flagged.
        ok = FunctionalAutomaton(
            name="free",
            signature=Signature(outputs=FiniteActionSet([OUT])),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
            task_names=(),
            task_assignment=lambda a: None,
        )
        report = check_automaton_contract(
            ok, name="free", require_task_determinism=False
        )
        assert report.ok, [f.format_text() for f in report.findings]


class TestApplyPurity:
    def test_mutating_apply_rejected_as_c04(self):
        class Cell:
            """Hashable but mutable state — the exact trap C04 exists for."""

            def __init__(self, items=None):
                self.items = list(items or [])

            def __eq__(self, other):
                return isinstance(other, Cell) and self.items == other.items

            def __hash__(self):
                return 17  # constant: legal, if degenerate

            def __repr__(self):
                return f"Cell({self.items})"

        def transition(s, a):
            if len(s.items) < 2:
                s.items.append(a.name)  # mutates the input state
            return s

        bad = FunctionalAutomaton(
            name="mutator",
            signature=Signature(outputs=FiniteActionSet([OUT])),
            initial=Cell(),
            transition=transition,
            enabled_fn=lambda s: [OUT] if len(s.items) < 2 else [],
        )
        report = check_automaton_contract(
            bad, name="mutator", require_task_determinism=False
        )
        assert "REPROC04" in codes_of(report)
        assert any("mutated" in f.message for f in report.findings)


class TestTaskDeterminism:
    def test_two_enabled_actions_in_one_task_rejected_as_c05_only(self):
        bad = FunctionalAutomaton(
            name="nd",
            signature=Signature(outputs=FiniteActionSet([OUT, OUT2])),
            initial=0,
            transition=lambda s, a: min(s + 1, 3),
            enabled_fn=lambda s: [OUT, OUT2] if s < 3 else [],
        )
        report = check_automaton_contract(bad, name="nd")
        assert codes_of(report) == ["REPROC05"]
        # The finding names the exact offending state (BFS finds 0 first).
        assert "state 0" in report.findings[0].message

    def test_same_automaton_passes_when_not_required(self):
        relaxed = FunctionalAutomaton(
            name="nd",
            signature=Signature(outputs=FiniteActionSet([OUT, OUT2])),
            initial=0,
            transition=lambda s, a: min(s + 1, 3),
            enabled_fn=lambda s: [OUT, OUT2] if s < 3 else [],
        )
        report = check_automaton_contract(
            relaxed, name="nd", require_task_determinism=False
        )
        assert report.ok


class TestPicklability:
    def test_picklable_spec_passes(self):
        assert check_picklable((1, "two", frozenset({3})), "tuple") == []

    def test_unpicklable_object_rejected_as_c06(self):
        findings = check_picklable(lambda: None, "lambda")
        assert [f.code for f in findings] == ["REPROC06"]
        assert "pickle round-trip failed" in findings[0].message


class TestAcceptanceFixture:
    def test_doubly_malformed_automaton_names_both_violations(self):
        """The ISSUE acceptance criterion: overlapping input/output
        signature AND a task covering no action -> BOTH named."""
        bad = FunctionalAutomaton(
            name="doubly-bad",
            signature=Signature(
                inputs=FiniteActionSet([IN]),
                outputs=FiniteActionSet([IN, OUT]),  # overlap: C01
            ),
            initial=0,
            transition=lambda s, a: min(s + 1, 2),
            enabled_fn=lambda s: [OUT] if s < 2 else [],
            task_names=("main", "ghost"),  # ghost covers nothing: C03
            task_assignment=lambda a: "main",
        )
        report = check_automaton_contract(bad, name="doubly-bad")
        assert codes_of(report) == ["REPROC01", "REPROC03"]
        messages = " | ".join(f.message for f in report.findings)
        assert "disjoint" in messages
        assert "'ghost'" in messages


class TestRepositorySubjects:
    def test_default_subjects_cover_the_zoo_and_system_automata(self):
        names = [s.name for s in default_contract_subjects()]
        assert any(n.startswith("detector:") for n in names)
        assert any("ChannelAutomaton" in n for n in names)
        assert any("CrashAutomaton" in n for n in names)
        assert any(n.startswith("algorithm:") for n in names)
        assert len(names) == len(set(names))

    def test_default_spec_subjects_are_picklable(self):
        for name, obj in default_spec_subjects():
            assert check_picklable(obj, name) == [], name

    def test_every_registry_entry_is_checked_and_exported(self):
        # A registry entry nobody sweeps is an automaton nobody checks:
        # each live detector / timed implementation needs its contract
        # subject on both engines, and its class is public surface.
        import repro.api
        from repro.detectors.registry import iter_registered_automata
        from repro.timed.registry import IMPLEMENTATIONS

        subjects = {s.name for s in default_contract_subjects()}
        entries = [
            ("detector", name, type(afd))
            for name, afd, _automaton in iter_registered_automata()
        ] + [("timed", name, cls) for name, cls in IMPLEMENTATIONS.items()]
        assert entries
        for prefix, name, cls in entries:
            for subject in (f"{prefix}:{name}", f"compiled:{prefix}:{name}"):
                assert subject in subjects, subject
            assert cls.__name__ in repro.api.__all__, cls

    def test_whole_repository_passes_the_contract(self):
        report = run_contract_checks()
        assert report.ok, [f.format_text() for f in report.findings]
        assert report.subjects_checked >= 25

    def test_subject_dataclass_roundtrip(self):
        subject = ContractSubject(name="x", automaton=well_formed_machine())
        report = check_automaton_contract(
            subject.automaton,
            name=subject.name,
            extra_inputs=subject.extra_inputs,
            max_states=subject.max_states,
            require_task_determinism=subject.require_task_determinism,
        )
        assert report.ok

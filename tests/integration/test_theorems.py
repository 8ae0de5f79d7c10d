"""Integration tests: one test (or class) per headline theorem.

These are the executable counterparts of the paper's results, run on full
systems; the per-module tests cover the pieces.
"""

import pytest

from repro.algorithms.consensus_perfect import (
    PerfectConsensusProcess,
    perfect_consensus_algorithm,
)
from repro.analysis.checkers import run_consensus_experiment
from repro.analysis.hierarchy import validate_hierarchy
from repro.core.self_implementation import self_implementation_algorithm
from repro.detectors.perfect import Perfect, PerfectAutomaton
from repro.detectors.registry import ZOO, known_reductions, make_detector
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.bounded import (
    check_crash_independence,
    find_quiescent_execution,
)
from repro.problems.consensus import (
    CentralizedConsensusSolver,
    ConsensusProblem,
)
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import (
    ScriptedConsensusEnvironment,
    propose_action,
)
from repro.system.fault_pattern import FaultPattern, crash_action

LOCS = (0, 1, 2)


class TestCorollary14SelfImplementability:
    """Every AFD is self-implementable: D >= D via Algorithm 3."""

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_every_zoo_afd_self_implements(self, name):
        afd = make_detector(name, LOCS)
        algorithm, _renaming = self_implementation_algorithm(afd)
        renamed = afd.renamed()
        pattern = FaultPattern({1: 7}, LOCS)
        system = Composition(
            [afd.automaton()]
            + list(algorithm.automata())
            + [CrashAutomaton(LOCS)],
            name=f"self-{name}",
        )
        execution = Scheduler().run(
            system, max_steps=500, injections=pattern.injections()
        )
        events = list(execution.actions)
        assert afd.check_limit(afd.project_events(events))
        result = renamed.check_limit(renamed.project_events(events))
        assert result, (name, result.reasons)


class TestTheorem15Transitivity:
    """Registered reductions compose; reachability in the hierarchy graph
    is sound (validated edge by edge)."""

    def test_hierarchy_edges_validated(self):
        patterns = [FaultPattern({}, LOCS), FaultPattern({2: 4}, LOCS)]
        validation = validate_hierarchy(LOCS, patterns, max_steps=600)
        assert validation.all_held, validation.failures


class TestTheorem18StrongerSolvesMore:
    """P >= EvP, and consensus (a problem EvP-family detectors solve
    eventually) is solvable with P directly; moreover every problem-style
    conclusion reachable from the weaker detector's outputs is reachable
    from the stronger one's by stacking the witness reduction."""

    def test_p_solves_consensus_through_evp_pipeline(self):
        """Lemma 16's construction, literally: compose the P->EvP relay
        with an EvP-consuming consensus algorithm; feed it FD-P."""
        reduction = next(
            r for r in known_reductions() if r.name == "P>=EvP"
        )
        _p, _evp, relay = reduction.instantiate(LOCS)
        # The rotating-coordinator algorithm parameterized to consume the
        # *renamed* (EvP) vocabulary... it requires accuracy, so use the
        # relay's EvP outputs which inherit P's accuracy here.
        algorithm = perfect_consensus_algorithm(
            LOCS, fd_output_name="fd-evp"
        )
        env = ScriptedConsensusEnvironment({0: 1, 1: 0, 2: 0})
        system = Composition(
            list(algorithm.automata())
            + list(relay.automata())
            + make_channels(LOCS)
            + [PerfectAutomaton(LOCS), env, CrashAutomaton(LOCS)],
            name="stacked-consensus",
        )
        pattern = FaultPattern({0: 6}, LOCS)

        execution = Scheduler().run(
            system, max_steps=4000, injections=pattern.injections()
        )
        events = list(execution.actions)
        problem = ConsensusProblem(LOCS, f=1)
        assert problem.check_conditional(problem.project_events(events))
        decisions = {a.payload[0] for a in events if a.name == "decide"}
        assert len(decisions) == 1


class TestTheorem21BoundedProblems:
    """The executable constructions behind Theorem 21 (Lemmas 23-24)."""

    def consensus_injections(self):
        return [
            Injection(0, propose_action(0, 1)),
            Injection(1, propose_action(1, 0)),
            Injection(2, propose_action(2, 1)),
        ]

    def test_lemma23_quiescent_execution_exists(self):
        """A run of the witness system reaches a quiescent state with no
        further problem outputs in any probed extension."""
        u = CentralizedConsensusSolver(LOCS)
        system = Composition([u, CrashAutomaton(LOCS)], name="SU")
        report = find_quiescent_execution(
            system,
            is_output=lambda a: a.name == "decide",
            injections=self.consensus_injections()
            + [Injection(3, crash_action(2))],
        )
        assert report.lemma23_holds
        assert report.outputs_before >= 2

    def test_lemma24_crash_stripping(self):
        """Deleting the crash events from the quiescent execution leaves
        an execution of the system (crash independence of U lifts)."""
        u = CentralizedConsensusSolver(LOCS)
        system = Composition([u, CrashAutomaton(LOCS)], name="SU")
        execution = Scheduler().run(
            system,
            max_steps=100,
            injections=self.consensus_injections()
            + [Injection(3, crash_action(2))],
        )
        assert check_crash_independence(system, execution)

    def test_lemma23_on_distributed_system(self):
        """The same construction on a full message-passing consensus
        system: quiesce (modulo the detector), empty channels, no further
        decide events."""
        algorithm = perfect_consensus_algorithm(LOCS)
        env = ScriptedConsensusEnvironment({0: 1, 1: 0, 2: 1})
        fd = PerfectAutomaton(LOCS)
        channels = make_channels(LOCS)
        system = Composition(
            list(algorithm.automata())
            + channels
            + [fd, env, CrashAutomaton(LOCS)],
            name="SPD",
        )

        def non_fd_task(task: str) -> bool:
            return not task.startswith("FD-P")

        def both_live_decided(state) -> bool:
            return all(
                PerfectConsensusProcess.decision(
                    system.component_state(state, algorithm[i])
                )
                is not None
                for i in (0, 1)
            )

        report = find_quiescent_execution(
            system,
            is_output=lambda a: a.name == "decide",
            injections=FaultPattern({2: 9}, LOCS).injections(),
            max_steps=6000,
            probe_steps=400,
            allowed_task=non_fd_task,
            channels_empty=lambda state: all(
                not system.component_state(state, c) for c in channels
            ),
            settle_when=both_live_decided,
        )
        assert report.lemma23_holds
        assert report.outputs_before == 2  # the two live locations


class TestSection9ConsensusWithAFDs:
    """Proposition 46 on real runs: exactly one decision value."""

    @pytest.mark.parametrize(
        "crashes", [{}, {0: 5}, {1: 14}], ids=["none", "c0", "c1"]
    )
    def test_exactly_one_decision_value(self, crashes):
        result = run_consensus_experiment(
            perfect_consensus_algorithm(LOCS),
            Perfect(LOCS),
            proposals={0: 1, 1: 0, 2: 0},
            fault_pattern=FaultPattern(crashes, LOCS),
            f=1,
        )
        assert result.solved
        values = {
            a.payload[0]
            for a in result.problem_events
            if a.name == "decide"
        }
        assert len(values) == 1

"""What happens when the detector lies: the premise of "A solves P using
D" is not decorative.

A mutually-suspicious fake detector (location 0 forever suspects {1,2};
locations 1 and 2 forever suspect {0}) drives the rotating-coordinator
algorithm into *disagreement* — every coordinator is skipped by someone
who keeps its own estimate.  The run's FD events are far outside T_P
(live locations suspected), so the defining implication of Section 5.2
holds vacuously: the library's conditional checker classifies the run
correctly, and the same algorithm under the real FD-P agrees.
"""

from typing import FrozenSet

from repro.algorithms.consensus_perfect import (
    PerfectConsensusProcess,
    perfect_consensus_algorithm,
)
from repro.detectors.base import CrashsetDetectorAutomaton, sorted_tuple
from repro.detectors.perfect import PERFECT_OUTPUT, Perfect
from repro.problems.consensus import ConsensusProblem
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.network import SystemBuilder

LOCS = (0, 1, 2)


class MutuallySuspiciousDetector(CrashsetDetectorAutomaton):
    """A non-P impostor: 0 suspects {1,2}; 1 and 2 suspect {0}."""

    def __init__(self):
        def value(location: int, crashset: FrozenSet[int]):
            if location == 0:
                return (sorted_tuple({1, 2}),)
            return (sorted_tuple({0}),)

        super().__init__(LOCS, PERFECT_OUTPUT, value, name="FD-P")


def slow_network_policy():
    """An adversarial schedule that partitions location 0 in time: every
    channel touching 0 is delayed past every decision, while 1 and 2 keep
    talking normally.  The lying detector makes each of 0's waits
    satisfiable by (false) suspicion, so 0 sprints through its rounds
    keeping its own estimate; 1 and 2 skip 0 by suspicion and converge
    between themselves.  The produced run is a prefix of a fair execution
    — the delayed deliveries happen after everyone has decided, where
    they change nothing."""
    from repro.ioa.scheduler import AdversarialPolicy

    def rank(task: str) -> int:
        if task.startswith("chan[0->") or "->0]" in task:
            return 2  # links touching location 0: delayed
        if task.startswith("FD-"):
            return 1
        return 0  # processes, environment, and the 1<->2 links

    def chooser(state, options, step):
        best_rank = min(rank(task) for task, _enabled in options)
        group = [pair for pair in options if rank(pair[0]) == best_rank]
        task, enabled = group[step % len(group)]  # rotate within the rank
        return min(enabled)

    return AdversarialPolicy(chooser)


def run_with_detector(fd_automaton, policy=None):
    algorithm = perfect_consensus_algorithm(LOCS)
    system = (
        SystemBuilder(LOCS)
        .with_algorithm(algorithm)
        .with_failure_detector(fd_automaton)
        .with_environment(
            ScriptedConsensusEnvironment({0: 0, 1: 1, 2: 1})
        )
        .build()
    )

    def all_decided(state):
        return all(
            PerfectConsensusProcess.decision(system.process_state(state, i))
            is not None
            for i in LOCS
        )

    execution = system.run(
        max_steps=4000, stop_when=all_decided, policy=policy
    )
    decisions = {
        i: PerfectConsensusProcess.decision(
            system.process_state(execution.final_state, i)
        )
        for i in LOCS
    }
    return execution, decisions


class TestLyingDetector:
    def test_disagreement_under_false_suspicion(self):
        execution, decisions = run_with_detector(
            MutuallySuspiciousDetector(), policy=slow_network_policy()
        )
        values = set(decisions.values())
        assert None not in values
        assert len(values) == 2, (
            "every coordinator is skipped before its estimate lands: "
            "location 0 keeps 0 while 1 and 2 keep 1"
        )

    def test_premise_fails_so_implication_vacuous(self):
        execution, _decisions = run_with_detector(
            MutuallySuspiciousDetector(), policy=slow_network_policy()
        )
        events = list(execution.actions)
        perfect = Perfect(LOCS)
        fd_events = perfect.project_events(events)
        # The fake detector's trace is not in T_P: live locations are
        # suspected before any crash.
        assert not perfect.check_safety(fd_events)
        # Consensus guarantees are violated on their own...
        problem = ConsensusProblem(LOCS, f=0)
        problem_events = problem.project_events(events)
        assert not problem.check_guarantees(problem_events)
        # ...but "A solves consensus using P" is a conditional statement,
        # and it survives: garbage in, anything out.
        premise_ok = bool(perfect.check_limit(fd_events))
        conclusion_ok = bool(problem.check_conditional(problem_events))
        assert (not premise_ok) or conclusion_ok

    def test_honest_detector_agrees_on_same_inputs(self):
        execution, decisions = run_with_detector(
            Perfect(LOCS).automaton()
        )
        assert len(set(decisions.values())) == 1
        problem = ConsensusProblem(LOCS, f=0)
        assert problem.check_conditional(
            problem.project_events(list(execution.actions))
        )

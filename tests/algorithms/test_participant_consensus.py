"""End-to-end tests for the Section 10.1 reductions: the query-based
participant detector is representative for consensus."""

from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.algorithms.participant_consensus import (
    consensus_from_participant_algorithm,
    participant_from_consensus_algorithm,
)
from repro.detectors.participant import (
    ParticipantDetectorAutomaton,
    query_action,
)
from repro.detectors.perfect import PerfectAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.consensus import ConsensusProblem
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestConsensusFromParticipant:
    """Direction 1: solve consensus using the participant detector."""

    def run_system(self, proposals, fault_pattern, steps=2500):
        algorithm = consensus_from_participant_algorithm(LOCS)
        system = Composition(
            list(algorithm.automata())
            + make_channels(LOCS)
            + [
                ParticipantDetectorAutomaton(LOCS),
                ScriptedConsensusEnvironment(proposals),
                CrashAutomaton(LOCS),
            ],
            name="cons-from-participant",
        )
        execution = Scheduler().run(
            system, max_steps=steps, injections=fault_pattern.injections()
        )
        return list(execution.actions)

    def test_crash_free_consensus(self):
        events = self.run_system({0: 1, 1: 0, 2: 0}, FaultPattern({}, LOCS))
        problem = ConsensusProblem(LOCS, f=0)
        t = problem.project_events(events)
        assert problem.check_conditional(t), t

    def test_decision_is_chosen_participants_value(self):
        events = self.run_system({0: 1, 1: 0, 2: 0}, FaultPattern({}, LOCS))
        responses = [a for a in events if a.name == "fd-response"]
        decisions = {a.payload[0] for a in events if a.name == "decide"}
        assert responses
        chosen = responses[0].payload[0]
        proposals = {0: 1, 1: 0, 2: 0}
        assert decisions == {proposals[chosen]}

    def test_queries_follow_broadcast(self):
        """The algorithm's safety hinges on querying only after the
        proposal broadcast: check the event order."""
        events = self.run_system({0: 1, 1: 0, 2: 1}, FaultPattern({}, LOCS))
        for i in LOCS:
            query_idx = next(
                k
                for k, a in enumerate(events)
                if a.name == "fd-query" and a.location == i
            )
            sends = [
                k
                for k, a in enumerate(events)
                if a.name == "send" and a.location == i
            ]
            assert len(sends) == 2
            assert all(s < query_idx for s in sends)


class TestParticipantFromConsensus:
    """Direction 2: implement the participant detector from consensus."""

    def run_system(self, queried, fault_pattern, steps=4000):
        wrapper = participant_from_consensus_algorithm(LOCS)
        consensus = perfect_consensus_algorithm(LOCS, values=LOCS)
        components = (
            list(wrapper.automata())
            + list(consensus.automata())
            + make_channels(LOCS)
            + [PerfectAutomaton(LOCS), CrashAutomaton(LOCS)]
        )
        system = Composition(components, name="participant-from-cons")
        injections = [
            Injection(k, query_action(i)) for k, i in enumerate(queried)
        ] + fault_pattern.injections()
        execution = Scheduler().run(
            system, max_steps=steps, injections=injections
        )
        return list(execution.actions)

    def test_participation_guarantee(self):
        events = self.run_system((0, 1, 2), FaultPattern({}, LOCS))
        responses = [a for a in events if a.name == "fd-response"]
        assert len(responses) == 3
        assert ParticipantDetectorAutomaton.satisfies_participation(events)

    def test_chosen_id_actually_queried(self):
        events = self.run_system((2, 0, 1), FaultPattern({}, LOCS))
        responses = [a for a in events if a.name == "fd-response"]
        named = {a.payload[0] for a in responses}
        assert len(named) == 1
        queried_before = set()
        name = named.pop()
        for a in events:
            if a.name == "fd-query":
                queried_before.add(a.location)
            if a.name == "fd-response":
                assert name in queried_before
                break

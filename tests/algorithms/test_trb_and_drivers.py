"""Tests for TRB flooding, leader election, and NBAC."""

import pytest

from repro.algorithms.atomic_commit import nbac_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.algorithms.leader_election import (
    leader_election_algorithm,
)
from repro.algorithms.trb_flooding import (
    TrbFloodingProcess,
    trb_flooding_algorithm,
)
from repro.detectors.perfect import PerfectAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.atomic_commit import (
    NO,
    YES,
    AtomicCommitProblem,
    vote_action,
)
from repro.problems.leader_election import LeaderElectionProblem
from repro.problems.reliable_broadcast import (
    SILENT,
    ReliableBroadcastProblem,
    bcast_action,
)
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.fault_pattern import FaultPattern

LOCS = (0, 1, 2)


class TestTrbFlooding:
    def run_trb(self, crashes, bcast_step=0, message="m", steps=8000):
        algorithm = trb_flooding_algorithm(LOCS, sender=0, f=2)
        system = Composition(
            list(algorithm.automata())
            + make_channels(LOCS)
            + [PerfectAutomaton(LOCS), CrashAutomaton(LOCS)],
            name="trb",
        )
        injections = [Injection(bcast_step, bcast_action(0, message))]
        injections += FaultPattern(crashes, LOCS).injections()
        execution = Scheduler().run(
            system, max_steps=steps, injections=injections
        )
        problem = ReliableBroadcastProblem(LOCS, sender=0, f=2)
        events = problem.project_events(list(execution.actions))
        deliveries = {
            a.location: a.payload[0] for a in events if a.name == "deliver"
        }
        return problem.check_conditional(events), deliveries

    def test_sender_validation(self):
        with pytest.raises(ValueError):
            TrbFloodingProcess(0, LOCS, sender=9, f=1)

    def test_crash_free_broadcast(self):
        verdict, deliveries = self.run_trb({})
        assert verdict, verdict.reasons
        assert deliveries == {0: "m", 1: "m", 2: "m"}

    @pytest.mark.parametrize("crash_step", [2, 8, 20, 40])
    def test_sender_crash_sweep(self, crash_step):
        """Crash the sender at various points: everyone delivers the same
        thing — the message or SILENT."""
        verdict, deliveries = self.run_trb({0: crash_step})
        assert verdict, (crash_step, verdict.reasons)
        values = {v for i, v in deliveries.items() if i != 0}
        assert len(values) == 1
        assert values <= {"m", SILENT}

    def test_sender_crash_before_bcast_delivers_silent(self):
        verdict, deliveries = self.run_trb({0: 0}, bcast_step=50)
        assert verdict
        assert deliveries.get(1) == SILENT
        assert deliveries.get(2) == SILENT

    def test_relay_crash(self):
        verdict, deliveries = self.run_trb({1: 10})
        assert verdict
        assert deliveries[0] == "m" and deliveries[2] == "m"


class TestLeaderElection:
    def run_election(self, crashes, steps=8000):
        drivers = leader_election_algorithm(LOCS)
        consensus = perfect_consensus_algorithm(LOCS, values=LOCS)
        system = Composition(
            list(drivers.automata())
            + list(consensus.automata())
            + make_channels(LOCS)
            + [PerfectAutomaton(LOCS), CrashAutomaton(LOCS)],
            name="election",
        )
        execution = Scheduler().run(
            system,
            max_steps=steps,
            injections=FaultPattern(crashes, LOCS).injections(),
        )
        problem = LeaderElectionProblem(LOCS, f=1)
        events = problem.project_events(list(execution.actions))
        leaders = {
            a.location: a.payload[0] for a in events if a.name == "leader"
        }
        return problem.check_conditional(events), leaders

    def test_crash_free_unanimous(self):
        verdict, leaders = self.run_election({})
        assert verdict, verdict.reasons
        assert set(leaders) == set(LOCS)
        assert len(set(leaders.values())) == 1

    def test_with_crash(self):
        verdict, leaders = self.run_election({2: 8})
        assert verdict, verdict.reasons
        assert set(leaders.values()) <= set(LOCS)
        assert len(set(leaders.values())) == 1

    def test_elected_leader_is_a_location(self):
        _verdict, leaders = self.run_election({0: 5})
        assert all(l in LOCS for l in leaders.values())


class TestNbac:
    def run_nbac(self, votes, crashes, steps=8000):
        drivers = nbac_algorithm(LOCS)
        consensus = perfect_consensus_algorithm(LOCS)
        system = Composition(
            list(drivers.automata())
            + list(consensus.automata())
            + make_channels(LOCS)
            + [PerfectAutomaton(LOCS), CrashAutomaton(LOCS)],
            name="nbac",
        )
        injections = [
            Injection(k, vote_action(i, v))
            for k, (i, v) in enumerate(sorted(votes.items()))
        ]
        injections += FaultPattern(crashes, LOCS).injections()
        execution = Scheduler().run(
            system, max_steps=steps, injections=injections
        )
        problem = AtomicCommitProblem(LOCS, f=1)
        events = problem.project_events(list(execution.actions))
        verdicts = {
            a.location: a.name
            for a in events
            if a.name in ("commit", "abort")
        }
        return problem.check_conditional(events), verdicts

    def test_all_yes_commits(self):
        verdict, verdicts = self.run_nbac(
            {0: YES, 1: YES, 2: YES}, {}
        )
        assert verdict, verdict.reasons
        assert set(verdicts.values()) == {"commit"}

    def test_one_no_aborts(self):
        verdict, verdicts = self.run_nbac({0: YES, 1: NO, 2: YES}, {})
        assert verdict, verdict.reasons
        assert set(verdicts.values()) == {"abort"}

    def test_crash_before_vote_aborts(self):
        """Location 2 crashes before voting: its vote never arrives and
        the survivors must abort (abort-validity is satisfied by the
        crash)."""
        verdict, verdicts = self.run_nbac({0: YES, 1: YES}, {2: 0})
        assert verdict, verdict.reasons
        assert set(verdicts.values()) == {"abort"}

    def test_verdicts_agree(self):
        for crashes in ({}, {1: 4}):
            verdict, verdicts = self.run_nbac(
                {0: YES, 1: YES, 2: YES}, crashes
            )
            assert verdict, verdict.reasons
            assert len(set(verdicts.values())) == 1

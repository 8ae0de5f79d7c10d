#!/usr/bin/env python
"""The bounded-problem suite (Section 7.3) in action.

Theorem 21's subjects — consensus, k-set agreement, leader election,
NBAC, terminating reliable broadcast — are all implemented here over the
perfect detector P (and, where natural, a consensus black box).  This
demo runs each under the same crash plan and checks it against its
specification, then shows the property that makes them *bounded*: each
run emits a bounded number of problem outputs and then goes quiet.

Run:  python examples/bounded_problems_demo.py
"""

from repro.algorithms.atomic_commit import nbac_algorithm
from repro.algorithms.consensus_perfect import perfect_consensus_algorithm
from repro.algorithms.kset_floodmin import (
    FloodMinProcess,
    floodmin_algorithm,
)
from repro.algorithms.leader_election import leader_election_algorithm
from repro.algorithms.trb_flooding import trb_flooding_algorithm
from repro.detectors.perfect import PerfectAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.atomic_commit import YES, AtomicCommitProblem, vote_action
from repro.problems.kset_agreement import KSetAgreementProblem
from repro.problems.leader_election import LeaderElectionProblem
from repro.problems.reliable_broadcast import (
    ReliableBroadcastProblem,
    bcast_action,
)
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder

LOCATIONS = (0, 1, 2)
CRASHES = {2: 7}


def show(label, problem, events, outputs):
    verdict = problem.check_conditional(events)
    print(f"{label:38} outputs={outputs:<24} spec={'OK' if verdict else 'FAIL'}")
    assert verdict, verdict.reasons


def main() -> None:
    print(f"locations {LOCATIONS}, crash plan {CRASHES}\n")
    pattern = FaultPattern(CRASHES, LOCATIONS)

    # --- 2-set agreement (FloodMin over P) ------------------------------
    algorithm = floodmin_algorithm(LOCATIONS, k=2, f=2)
    system = (
        SystemBuilder(LOCATIONS)
        .with_algorithm(algorithm)
        .with_failure_detector(PerfectAutomaton(LOCATIONS))
        .with_environment(
            ScriptedConsensusEnvironment({i: i for i in LOCATIONS})
        )
        .build()
    )

    def settled(state):
        crashed = system.crashed(state)
        return all(
            i in crashed
            or FloodMinProcess.decision(system.process_state(state, i))
            is not None
            for i in LOCATIONS
        )

    execution = system.run(
        max_steps=15_000, fault_pattern=pattern, stop_when=settled
    )
    problem = KSetAgreementProblem(LOCATIONS, f=2, k=2)
    events = problem.project_events(list(execution.actions))
    decisions = sorted(
        (a.location, a.payload[0]) for a in events if a.name == "decide"
    )
    show("2-set agreement (FloodMin over P)", problem, events, str(decisions))

    # --- terminating reliable broadcast ---------------------------------
    trb = trb_flooding_algorithm(LOCATIONS, sender=0, f=2)
    trb_system = Composition(
        list(trb.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="trb",
    )
    execution = Scheduler().run(
        trb_system,
        max_steps=8000,
        injections=[Injection(0, bcast_action(0, "payload"))]
        + pattern.injections(),
    )
    problem = ReliableBroadcastProblem(LOCATIONS, sender=0, f=2)
    events = problem.project_events(list(execution.actions))
    deliveries = sorted(
        (a.location, a.payload[0]) for a in events if a.name == "deliver"
    )
    show("TRB (flooding over P)", problem, events, str(deliveries))

    # --- leader election (consensus black box) --------------------------
    drivers = leader_election_algorithm(LOCATIONS)
    consensus = perfect_consensus_algorithm(LOCATIONS, values=LOCATIONS)
    election = Composition(
        list(drivers.automata())
        + list(consensus.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="election",
    )
    execution = Scheduler().run(
        election, max_steps=8000, injections=pattern.injections()
    )
    problem = LeaderElectionProblem(LOCATIONS, f=1)
    events = problem.project_events(list(execution.actions))
    leaders = sorted(
        (a.location, a.payload[0]) for a in events if a.name == "leader"
    )
    show("leader election (via consensus)", problem, events, str(leaders))

    # --- NBAC (vote round + consensus) ----------------------------------
    nbac = nbac_algorithm(LOCATIONS)
    nbac_consensus = perfect_consensus_algorithm(LOCATIONS)
    commit_system = Composition(
        list(nbac.automata())
        + list(nbac_consensus.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="nbac",
    )
    execution = Scheduler().run(
        commit_system,
        max_steps=8000,
        injections=[
            Injection(k, vote_action(i, YES))
            for k, i in enumerate(LOCATIONS)
        ]
        + pattern.injections(),
    )
    problem = AtomicCommitProblem(LOCATIONS, f=1)
    events = problem.project_events(list(execution.actions))
    verdicts = sorted(
        (a.location, a.name)
        for a in events
        if a.name in ("commit", "abort")
    )
    show("NBAC (vote round + consensus)", problem, events, str(verdicts))

    print(
        "\nEach run produced at most n problem outputs and then went "
        "quiet:\nthe bounded-length behavior that (with crash "
        "independence) denies\nthese problems a representative AFD "
        "(Theorem 21)."
    )


if __name__ == "__main__":
    main()

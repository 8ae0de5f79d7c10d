"""A4 (extension) — the bounded-problem algorithm suite.

Section 7.3 lists consensus, k-set agreement, leader election, NBAC and
TRB as bounded problems; the library implements an algorithm for each
(over P and/or a consensus black box).  This bench runs all of them under
a fixed crash plan and checks each against its specification.
"""

# _helpers comes first: it puts src/ on sys.path so the script
# runs directly (python benchmarks/bench_*.py) without PYTHONPATH.
from _helpers import BenchSpec, bench_main, emit_bench_artifact, print_series

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
from repro.problems.atomic_commit import (
    YES,
    AtomicCommitProblem,
    vote_action,
)
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


def run_kset():
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
        max_steps=15_000,
        fault_pattern=FaultPattern(CRASHES, LOCATIONS),
        stop_when=settled,
    )
    problem = KSetAgreementProblem(LOCATIONS, f=2, k=2)
    return bool(
        problem.check_conditional(
            problem.project_events(list(execution.actions))
        )
    )


def run_trb():
    algorithm = trb_flooding_algorithm(LOCATIONS, sender=0, f=2)
    system = Composition(
        list(algorithm.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="trb",
    )
    execution = Scheduler().run(
        system,
        max_steps=8000,
        injections=[Injection(0, bcast_action(0, "payload"))]
        + FaultPattern(CRASHES, LOCATIONS).injections(),
    )
    problem = ReliableBroadcastProblem(LOCATIONS, sender=0, f=2)
    return bool(
        problem.check_conditional(
            problem.project_events(list(execution.actions))
        )
    )


def run_leader_election():
    drivers = leader_election_algorithm(LOCATIONS)
    consensus = perfect_consensus_algorithm(LOCATIONS, values=LOCATIONS)
    system = Composition(
        list(drivers.automata())
        + list(consensus.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="election",
    )
    execution = Scheduler().run(
        system,
        max_steps=8000,
        injections=FaultPattern(CRASHES, LOCATIONS).injections(),
    )
    problem = LeaderElectionProblem(LOCATIONS, f=1)
    return bool(
        problem.check_conditional(
            problem.project_events(list(execution.actions))
        )
    )


def run_nbac():
    drivers = nbac_algorithm(LOCATIONS)
    consensus = perfect_consensus_algorithm(LOCATIONS)
    system = Composition(
        list(drivers.automata())
        + list(consensus.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="nbac",
    )
    execution = Scheduler().run(
        system,
        max_steps=8000,
        injections=[
            Injection(k, vote_action(i, YES))
            for k, i in enumerate(LOCATIONS)
        ]
        + FaultPattern(CRASHES, LOCATIONS).injections(),
    )
    problem = AtomicCommitProblem(LOCATIONS, f=1)
    return bool(
        problem.check_conditional(
            problem.project_events(list(execution.actions))
        )
    )


_PROBLEMS = [
    ("2-set agreement (FloodMin over P)", run_kset),
    ("TRB (flooding over P)", run_trb),
    ("leader election (consensus black box)", run_leader_election),
    ("NBAC (vote round + consensus)", run_nbac),
]


def _row(index):
    label, runner = _PROBLEMS[index]
    return (label, runner())


def suite(jobs=1):
    from repro.runner import parallel_map

    return parallel_map(_row, list(range(len(_PROBLEMS))), jobs=jobs)


BENCH = BenchSpec(
    bench_id="a04",
    title=f"A4: bounded-problem algorithm suite (crash plan {CRASHES})",
    kernel=suite,
    header=("problem / algorithm", "specification holds"),
)


def test_a04_bounded_problem_suite(benchmark):
    rows = benchmark.pedantic(suite, rounds=1, iterations=1)
    print_series(BENCH.title, rows, header=BENCH.header)
    emit_bench_artifact(BENCH, rows)
    assert all(ok for (_label, ok) in rows)


if __name__ == "__main__":
    raise SystemExit(bench_main(BENCH))

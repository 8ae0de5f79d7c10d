"""E16 — Section 10.1: the query-based participant detector is
representative for consensus — both reduction directions run — whereas
Theorem 21 denies this to every AFD.

Series: both directions x scenario -> verdicts.
"""

# _helpers comes first: it puts src/ on sys.path so the script
# runs directly (python benchmarks/bench_*.py) without PYTHONPATH.
from _helpers import BenchSpec, bench_main, emit_bench_artifact, print_series

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


LOCATIONS = (0, 1, 2)


def direction_1(proposals):
    """Consensus using the participant detector."""
    algorithm = consensus_from_participant_algorithm(LOCATIONS)
    system = Composition(
        list(algorithm.automata())
        + make_channels(LOCATIONS)
        + [
            ParticipantDetectorAutomaton(LOCATIONS),
            ScriptedConsensusEnvironment(proposals),
            CrashAutomaton(LOCATIONS),
        ],
        name="d1",
    )
    execution = Scheduler().run(system, max_steps=2500)
    problem = ConsensusProblem(LOCATIONS, f=0)
    trace = problem.project_events(list(execution.actions))
    return bool(problem.check_conditional(trace))


def direction_2(query_order):
    """The participant detector from a consensus black box."""
    wrapper = participant_from_consensus_algorithm(LOCATIONS)
    consensus = perfect_consensus_algorithm(LOCATIONS, values=LOCATIONS)
    system = Composition(
        list(wrapper.automata())
        + list(consensus.automata())
        + make_channels(LOCATIONS)
        + [PerfectAutomaton(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="d2",
    )
    injections = [
        Injection(k, query_action(i)) for k, i in enumerate(query_order)
    ]
    execution = Scheduler().run(
        system, max_steps=4000, injections=injections
    )
    events = list(execution.actions)
    responses = [a for a in events if a.name == "fd-response"]
    return (
        len(responses) == len(LOCATIONS)
        and ParticipantDetectorAutomaton.satisfies_participation(events)
    )


def _row(item):
    """One direction/scenario pair, dispatched from plain data."""
    direction, arg = item
    if direction == "d1":
        return (f"consensus from participant {arg}", direction_1(arg))
    return (f"participant from consensus, queries {arg}", direction_2(arg))


def both_directions(quick=False, jobs=1):
    from repro.runner import parallel_map

    proposal_sets = ({0: 1, 1: 0, 2: 0}, {0: 0, 1: 1, 2: 1})
    orders = ((0, 1, 2), (2, 0, 1))
    if quick:
        proposal_sets = proposal_sets[:1]
        orders = orders[:1]
    units = [("d1", proposals) for proposals in proposal_sets]
    units += [("d2", order) for order in orders]
    return parallel_map(_row, units, jobs=jobs)


BENCH = BenchSpec(
    bench_id="e16",
    title="E16: participant detector is representative for consensus",
    kernel=both_directions,
    header=("direction/scenario", "holds"),
)


def test_e16_participant_representative(benchmark):
    rows = benchmark.pedantic(both_directions, rounds=2, iterations=1)
    print_series(BENCH.title, rows, header=BENCH.header)
    emit_bench_artifact(BENCH, rows)
    assert all(ok for (_label, ok) in rows)


if __name__ == "__main__":
    raise SystemExit(bench_main(BENCH))

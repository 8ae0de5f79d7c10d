"""E15 — Theorem 21 / Lemmas 23–24: bounded-problem constructions.

* bounded length: the consensus witness U never exceeds n outputs;
* crash independence: stripping crash events leaves replayable runs;
* Lemma 23 on a full distributed consensus system: settle, drain to
  empty channels (modulo the detector), probe — zero further outputs;
* Lemma 24: crash-stripped replays of the witness system succeed.

Series: scenario -> verdicts.
"""

# _helpers comes first: it puts src/ on sys.path so the script
# runs directly (python benchmarks/bench_*.py) without PYTHONPATH.
from _helpers import BenchSpec, bench_main, emit_bench_artifact, print_series

from repro.algorithms.consensus_perfect import (
    PerfectConsensusProcess,
    perfect_consensus_algorithm,
)
from repro.detectors.perfect import PerfectAutomaton
from repro.ioa.composition import Composition
from repro.ioa.scheduler import Injection, Scheduler
from repro.problems.bounded import (
    BoundedProblemAnalysis,
    check_crash_independence,
    find_quiescent_execution,
)
from repro.problems.consensus import CentralizedConsensusSolver
from repro.system.channel import make_channels
from repro.system.crash import CrashAutomaton
from repro.system.environment import (
    ScriptedConsensusEnvironment,
    propose_action,
)
from repro.system.fault_pattern import FaultPattern, crash_action


LOCATIONS = (0, 1, 2)


def witness_runs():
    proposals = [
        Injection(k, propose_action(i, v))
        for k, (i, v) in enumerate([(0, 1), (1, 0), (2, 1)])
    ]
    return [
        (60, proposals),
        (60, proposals + [Injection(3, crash_action(2))]),
        (60, proposals + [Injection(0, crash_action(0))]),
    ]


def _bounded_rows():
    """Bounded length + crash independence of the witness U."""
    u = CentralizedConsensusSolver(LOCATIONS)
    analysis = BoundedProblemAnalysis(
        u, lambda a: a.name == "decide", bound=len(LOCATIONS)
    )
    return [("U bounded-length + crash-independent",
             bool(analysis.verify(witness_runs())))]


def _lemma23_rows():
    """Lemma 23 on the distributed consensus system."""
    algorithm = perfect_consensus_algorithm(LOCATIONS)
    channels = make_channels(LOCATIONS)
    system = Composition(
        list(algorithm.automata())
        + channels
        + [
            PerfectAutomaton(LOCATIONS),
            ScriptedConsensusEnvironment({0: 1, 1: 0, 2: 1}),
            CrashAutomaton(LOCATIONS),
        ],
        name="SPD",
    )

    def both_live_decided(state):
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
        injections=FaultPattern({2: 9}, LOCATIONS).injections(),
        max_steps=6000,
        probe_steps=400,
        allowed_task=lambda t: not t.startswith("FD-P"),
        channels_empty=lambda state: all(
            not system.component_state(state, c) for c in channels
        ),
        settle_when=both_live_decided,
    )
    return [
        ("Lemma 23: quiescent execution, no further outputs",
         report.lemma23_holds),
        ("  outputs before quiescence", report.outputs_before),
        ("  outputs in probe extension", report.outputs_in_probe),
    ]


def _lemma24_rows():
    """Lemma 24: crash-stripped replay of the witness system."""
    su = Composition(
        [CentralizedConsensusSolver(LOCATIONS), CrashAutomaton(LOCATIONS)],
        name="SU",
    )
    execution = Scheduler().run(
        su, max_steps=100, injections=witness_runs()[1][1]
    )
    return [("Lemma 24: crash-free replay applicable",
             bool(check_crash_independence(su, execution)))]


_SECTIONS = {
    "bounded": _bounded_rows,
    "lemma23": _lemma23_rows,
    "lemma24": _lemma24_rows,
}


def _section(name):
    return _SECTIONS[name]()


def full_construction(jobs=1):
    from repro.runner import parallel_map

    sections = parallel_map(
        _section, ["bounded", "lemma23", "lemma24"], jobs=jobs
    )
    return [row for rows in sections for row in rows]


BENCH = BenchSpec(
    bench_id="e15",
    title="E15: Theorem 21 ingredient constructions",
    kernel=full_construction,
    header=("scenario", "verdict"),
)


def test_e15_bounded_problem_constructions(benchmark):
    rows = benchmark.pedantic(full_construction, rounds=2, iterations=1)
    print_series(BENCH.title, rows)
    emit_bench_artifact(BENCH, rows)
    verdicts = [v for (_label, v) in rows if isinstance(v, bool)]
    assert all(verdicts)


if __name__ == "__main__":
    raise SystemExit(bench_main(BENCH))

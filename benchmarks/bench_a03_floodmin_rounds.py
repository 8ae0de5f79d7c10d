"""A3 (ablation) — FloodMin's round budget.

Design choice probed: FloodMin runs ``floor(f/k) + 1`` rounds (the
classic synchronous bound).  This ablation sweeps the round budget and
the crash schedule and reports the worst (largest) number of distinct
decisions observed: at the classic budget and above the count stays
within k; starving the algorithm of rounds lets more values survive
(visibly so for k=1, where 1 round under a mid-broadcast coordinator
crash splits the decision).
"""

# _helpers comes first: it puts src/ on sys.path so the script
# runs directly (python benchmarks/bench_*.py) without PYTHONPATH.
from _helpers import BenchSpec, bench_main, emit_bench_artifact, print_series

from repro.algorithms.kset_floodmin import (
    FloodMinProcess,
    floodmin_algorithm,
)
from repro.detectors.perfect import PerfectAutomaton
from repro.system.environment import ScriptedConsensusEnvironment
from repro.system.fault_pattern import FaultPattern
from repro.system.network import SystemBuilder


LOCATIONS = (0, 1, 2, 3)
K = 1
F = 2


def distinct_decisions(rounds, crashes):
    algorithm = floodmin_algorithm(
        LOCATIONS, k=K, f=F, rounds=rounds
    )
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
        max_steps=20_000,
        fault_pattern=FaultPattern(crashes, LOCATIONS),
        stop_when=settled,
    )
    decisions = {
        FloodMinProcess.decision(
            system.process_state(execution.final_state, i)
        )
        for i in LOCATIONS
        if i not in system.crashed(execution.final_state)
    }
    decisions.discard(None)
    return len(decisions)


def _count(item):
    rounds, crashes = item
    return distinct_decisions(rounds, crashes)


def sweep(quick=False, jobs=1):
    from repro.runner import parallel_map

    crash_plans = []
    # Chained crashes: 0 crashes mid-round-1, 1 crashes mid-round-2.
    for first in range(4, 8 if quick else 16, 2):
        for gap in (6,) if quick else (6, 12, 18):
            crash_plans.append({0: first, 1: first + gap})
    budgets = (1, 3) if quick else (1, 2, 3, 4)
    units = [
        (rounds, crashes) for rounds in budgets for crashes in crash_plans
    ]
    counts = parallel_map(_count, units, jobs=jobs)
    rows = []
    for k, rounds in enumerate(budgets):
        per_budget = counts[k * len(crash_plans):(k + 1) * len(crash_plans)]
        worst = max(per_budget)
        rows.append((rounds, worst, worst <= K))
    return rows


BENCH = BenchSpec(
    bench_id="a03",
    title=(
        "A3: FloodMin distinct decisions vs round budget "
        f"(k={K}, f={F}, n={len(LOCATIONS)})"
    ),
    kernel=sweep,
    header=("rounds", "worst distinct decisions", "within k"),
)


def test_a03_floodmin_round_budget(benchmark):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(BENCH.title, rows, header=BENCH.header)
    emit_bench_artifact(BENCH, rows)
    by_rounds = {r: worst for (r, worst, _ok) in rows}
    # The classic budget (f//k + 1 = 3) and anything above stay within k.
    assert by_rounds[3] <= K
    assert by_rounds[4] <= K
    # Starved budgets do strictly worse somewhere in the sweep.
    assert by_rounds[1] > K


if __name__ == "__main__":
    raise SystemExit(bench_main(BENCH))

"""A2 (ablation) — the 'eventually forever' tail threshold.

Design choice probed: the finite approximation of "there exists a suffix
such that ..." accepts a run only if every live location produces at
least ``min_tail_outputs`` outputs after the last violating event
(DESIGN.md substitution table; default 3).  This ablation shows why 1 is
too lenient — an Omega sequence that flip-flops between two leaders
forever is *accepted* at threshold 1 (the very last block masquerades as
stabilization) and correctly *rejected* from threshold 2 upward — while
genuine generator traces pass at every threshold.
"""

# _helpers comes first: it puts src/ on sys.path so the script
# runs directly (python benchmarks/bench_*.py) without PYTHONPATH.
from _helpers import (
    BenchSpec,
    bench_main,
    emit_bench_artifact,
    print_series,
    run_detector_trace,
)

from repro.core.afd import eventually_forever
from repro.core.validity import live_locations
from repro.detectors.omega import Omega, omega_output


LOCATIONS = (0, 1)


def flip_flop_trace(blocks=10):
    t = []
    for _ in range(blocks):
        t += [omega_output(0, 0), omega_output(1, 0)]
        t += [omega_output(0, 1), omega_output(1, 1)]
    return t


def stabilizing_trace():
    return run_detector_trace(
        Omega(LOCATIONS), {}, 80, LOCATIONS
    )


def accepted_with_threshold(t, threshold):
    live = live_locations(t, LOCATIONS)
    for candidate in sorted(live):
        verdict = eventually_forever(
            t,
            live,
            lambda a, l=candidate: a.payload[0] == l,
            min_tail_outputs=threshold,
        )
        if verdict:
            return True
    return False


def _row(threshold):
    """One threshold's verdicts; both traces regenerate deterministically
    worker-side (Action objects stay out of the pickle stream)."""
    flip = flip_flop_trace()
    good = stabilizing_trace()
    return (
        threshold,
        accepted_with_threshold(flip, threshold),
        accepted_with_threshold(good, threshold),
    )


def sweep(jobs=1):
    from repro.runner import parallel_map

    return parallel_map(_row, (1, 2, 3, 5), jobs=jobs)


BENCH = BenchSpec(
    bench_id="a02",
    title="A2: 'eventually forever' tail-threshold sensitivity",
    kernel=sweep,
    header=("threshold", "flip-flop accepted", "genuine accepted"),
)


def test_a02_tail_threshold_ablation(benchmark):
    rows = benchmark(sweep)
    print_series(BENCH.title, rows, header=BENCH.header)
    emit_bench_artifact(BENCH, rows)
    by_threshold = {t: (flip, good) for (t, flip, good) in rows}
    assert by_threshold[1][0], "threshold 1 is fooled by the last block"
    assert not by_threshold[3][0], "the default rejects the flip-flop"
    assert all(good for (_t, _flip, good) in rows), (
        "genuine stabilizing traces pass at every threshold"
    )


if __name__ == "__main__":
    raise SystemExit(bench_main(BENCH))

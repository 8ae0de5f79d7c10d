"""The engine's determinism contract (the tentpole guarantee).

1. The canonical trace of an instrumented spec is byte-identical whether
   the spec runs serially or in a multiprocessing worker pool.
2. Derived seeds are distinct (collision-free over a wide sweep) and
   distinct seeds produce genuinely different runs under the random
   scheduling policy.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.consensus_omega import omega_consensus_algorithm
from repro.runner import (
    BatchRunner,
    ExperimentSpec,
    derive_seed,
    derive_seeds,
    run_spec,
    sweep,
)

LOCS = (0, 1, 2)


def consensus_spec(**overrides):
    base = dict(
        algorithm=omega_consensus_algorithm,
        detector="omega",
        locations=LOCS,
        proposals={0: 1, 1: 0, 2: 0},
        crashes={0: 10},
        f=1,
        max_steps=30_000,
        instrument=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def trace_spec(**overrides):
    base = dict(
        detector="p",
        locations=LOCS,
        problem="detector-trace",
        crashes={2: 5},
        max_steps=80,
        instrument=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.usefixtures("fan_out_everything")
class TestSerialParallelIdentity:
    def test_consensus_traces_byte_identical_across_jobs(self):
        specs = sweep(consensus_spec(), fault_patterns=[{}, {0: 10}, {1: 4}])
        serial = BatchRunner(jobs=1).run(specs, raise_on_error=True)
        parallel = BatchRunner(jobs=4).run(specs, raise_on_error=True)
        for s, p in zip(serial, parallel):
            assert s.trace == p.trace  # byte-identical canonical JSONL
            assert s.trace is not None and len(s.trace) > 0
            assert (s.steps, s.messages_sent, s.decisions) == (
                p.steps,
                p.messages_sent,
                p.decisions,
            )

    def test_detector_traces_byte_identical_across_jobs(self):
        specs = sweep(
            trace_spec(), seeds=4, fault_patterns=[{}, {2: 5}]
        )
        serial = BatchRunner(jobs=1).run(specs, raise_on_error=True)
        parallel = BatchRunner(jobs=4).run(specs, raise_on_error=True)
        assert [r.trace for r in serial] == [r.trace for r in parallel]

    def test_random_policy_matches_in_worker(self):
        spec = consensus_spec(policy="random", seed=123)
        in_process = run_spec(spec)
        in_worker = BatchRunner(jobs=2).run(
            [spec, dataclasses.replace(spec)], raise_on_error=True
        )
        for result in in_worker:
            assert result.trace == in_process.trace


class TestSeedDerivation:
    def test_derived_seeds_distinct_wide(self):
        seeds = derive_seeds(0, 64, "sweep")
        assert len(set(seeds)) == 64
        # Distinct bases and components never collide in practice.
        wide = {
            derive_seed(base, di, pi, si)
            for base in range(4)
            for di in range(4)
            for pi in range(4)
            for si in range(4)
        }
        assert len(wide) == 256

    def test_sweep_over_20_seeds_all_distinct_runs(self):
        base = consensus_spec(policy="random")
        specs = sweep(base, seeds=20)
        assert len({s.seed for s in specs}) == 20
        batch = BatchRunner(jobs=4).run(specs, raise_on_error=True)
        assert all(r.solved for r in batch)
        # Distinct derived seeds drive genuinely different schedules:
        # the canonical traces are not all the same.
        assert len({tuple(r.trace) for r in batch}) > 1

    def test_derivation_is_stable(self):
        # Pinned: the derivation is SHA-256 based, not process-salted
        # Python hash(); the same inputs give the same seed anywhere.
        assert derive_seed(7, "x", 1) == derive_seed(7, "x", 1)
        assert derive_seed(7, "x", 1) != derive_seed(7, "x", 2)
        assert derive_seed(7, "x", 1) != derive_seed(8, "x", 1)

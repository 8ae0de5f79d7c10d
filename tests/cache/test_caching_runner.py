"""BatchRunner(cache=...): hit/miss partitioning and the third
byte-identity leg (cached-vs-recomputed)."""

from __future__ import annotations

import pytest

import repro.algorithms.consensus_omega as consensus_omega
import repro.runner.batch as batch_mod
from repro.algorithms.participant_consensus import (
    consensus_from_participant_algorithm,
)
from repro.cache import ResultStore
from repro.runner.spec import spec_digest
from repro.runner import BatchRunner, ExperimentSpec, sweep

LOCS = (0, 1, 2)


def trace_spec(**overrides):
    base = dict(
        detector="omega",
        locations=LOCS,
        problem="detector-trace",
        max_steps=40,
        seed=7,
        label="base",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def small_sweep(seeds=5):
    return sweep(trace_spec(), seeds=seeds)


def _refuse_to_execute(spec):
    raise AssertionError(f"kernel executed on a warm cache: {spec.label}")


def det(results):
    """Results with the one nondeterministic field (wall_s) zeroed.

    Everything else — labels, seeds, verdicts, step/message counts —
    must match byte-for-byte between independent executions.
    """
    import dataclasses

    return [dataclasses.replace(r, wall_s=0.0) for r in results]


class TestColdWarm:
    def test_cold_batch_is_all_misses_and_matches_uncached(self, tmp_path):
        specs = small_sweep()
        plain = BatchRunner(jobs=1).run(specs)
        cold = BatchRunner(jobs=1, cache=str(tmp_path / "store")).run(specs)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(specs)
        assert det(cold.results) == det(plain.results)  # cached-vs-recomputed

    def test_warm_batch_is_all_hits_and_byte_identical(self, tmp_path):
        specs = small_sweep()
        store = ResultStore(str(tmp_path / "store"))
        cold = BatchRunner(jobs=1, cache=store).run(specs)
        warm = BatchRunner(jobs=1, cache=store).run(specs)
        assert warm.cache_hits == len(specs)
        assert warm.cache_misses == 0
        assert warm.results == cold.results

    def test_warm_batch_executes_zero_kernels(self, tmp_path, monkeypatch):
        specs = small_sweep()
        store = ResultStore(str(tmp_path / "store"))
        BatchRunner(jobs=1, cache=store).run(specs)
        monkeypatch.setattr(batch_mod, "_execute_spec", _refuse_to_execute)
        warm = BatchRunner(jobs=1, cache=store).run(specs)
        assert warm.ok and warm.cache_hits == len(specs)

    def test_partial_store_reassembles_in_spec_order(self, tmp_path):
        specs = small_sweep(6)
        store = ResultStore(str(tmp_path / "store"))
        # Pre-warm only the odd cells; the batch must interleave hits and
        # executed misses back into spec order.
        for spec in specs[1::2]:
            store.put(spec, spec.run())
        plain = BatchRunner(jobs=1).run(specs)
        mixed = BatchRunner(jobs=1, cache=store).run(specs)
        assert mixed.cache_hits == 3 and mixed.cache_misses == 3
        assert [r.label for r in mixed.results] == [s.label for s in specs]
        assert det(mixed.results) == det(plain.results)

    def test_parallel_warm_matches_serial_cold(self, tmp_path):
        specs = small_sweep(6)
        store = ResultStore(str(tmp_path / "store"))
        cold = BatchRunner(jobs=1, cache=store).run(specs)
        warm = BatchRunner(jobs=2, cache=store).run(specs)
        assert warm.cache_hits == len(specs)
        assert warm.results == cold.results

    def test_uncached_batch_reports_zero_traffic(self):
        batch = BatchRunner(jobs=1).run(small_sweep(2))
        assert batch.cache_hits == 0 and batch.cache_misses == 0

    def test_cache_accepts_a_path_string(self, tmp_path):
        runner = BatchRunner(jobs=1, cache=str(tmp_path / "store"))
        assert isinstance(runner.cache, ResultStore)
        batch = runner.run(small_sweep(2))
        assert batch.cache_misses == 2


class TestCachePolicy:
    def test_failed_results_are_never_cached(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        bad = trace_spec(detector="no-such-detector", label="bad")
        first = BatchRunner(jobs=1, cache=store).run([bad])
        assert not first.ok and len(store) == 0
        second = BatchRunner(jobs=1, cache=store).run([bad])
        assert second.cache_hits == 0 and second.cache_misses == 1

    def test_instrumented_specs_bypass_the_cache(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        plain = trace_spec()
        BatchRunner(jobs=1, cache=store).run([plain])
        assert len(store) == 1
        # Same fingerprint as the stored plain result, but the trace
        # must come from a real execution, never from the store.
        instrumented = trace_spec(instrument=True)
        batch = BatchRunner(jobs=1, cache=store).run([instrumented])
        assert batch.cache_hits == 0 and batch.cache_misses == 1
        assert batch.results[0].trace is not None
        # And the instrumented result never overwrites the plain entry.
        assert store.get(plain).trace is None

    def test_corrupt_entry_reexecutes_instead_of_failing(self, tmp_path):
        import pickle

        store = ResultStore(str(tmp_path / "store"))
        spec = trace_spec()
        cold = BatchRunner(jobs=1, cache=store).run([spec])
        key = store.key_for(spec)
        path = store.object_path(key)
        with open(path, "rb") as fp:
            entry = pickle.load(fp)
        entry["payload"] = b"garbage"
        with open(path, "wb") as fp:
            pickle.dump(entry, fp)
        healed = BatchRunner(jobs=1, cache=store).run([spec])
        assert healed.cache_misses == 1
        assert det(healed.results) == det(cold.results)
        assert store.get(spec) is not None  # republished after re-run


def omega_consensus_algorithm(locations, **kwargs):
    """Shares the real factory's ``__name__`` but builds another
    algorithm, which never decides under Omega."""
    return consensus_from_participant_algorithm(locations, **kwargs)


class TestFactoryIdentity:
    def test_same_named_factory_is_a_miss_not_a_stale_hit(self, tmp_path):
        def consensus(factory):
            return ExperimentSpec(
                algorithm=factory,
                detector="omega",
                locations=LOCS,
                max_steps=400,
            )

        real = consensus(consensus_omega.omega_consensus_algorithm)
        impostor = consensus(omega_consensus_algorithm)
        assert real.label == impostor.label
        assert spec_digest(real) != spec_digest(impostor)
        store = ResultStore(str(tmp_path / "store"))
        stored = BatchRunner(jobs=1, cache=store).run([real])
        assert stored.results[0].solved
        batch = BatchRunner(jobs=1, cache=store).run([impostor])
        assert (batch.cache_hits, batch.cache_misses) == (0, 1)
        fresh = impostor.run()
        assert not fresh.solved and fresh.steps == 400
        assert det(batch.results) == det([fresh])


class TestRaiseOnError:
    def test_raise_on_error_still_applies_to_misses(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        bad = trace_spec(detector="no-such-detector", label="bad")
        with pytest.raises(RuntimeError, match="bad"):
            BatchRunner(jobs=1, cache=store).run([bad], raise_on_error=True)

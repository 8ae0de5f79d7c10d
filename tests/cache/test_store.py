"""ResultStore: content addressing, integrity, invalidation, telemetry."""

from __future__ import annotations

import os
import pickle

from repro.cache import CACHE_SCHEMA, ENGINE_REVISION, ResultStore, cacheable
from repro.runner.spec import spec_digest
from repro.runner import ExperimentSpec

LOCS = (0, 1, 2)


def trace_spec(**overrides):
    base = dict(
        detector="omega",
        locations=LOCS,
        problem="detector-trace",
        max_steps=40,
        seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def store_at(tmp_path, **kwargs):
    return ResultStore(str(tmp_path / "store"), **kwargs)


class TestRoundTrip:
    def test_get_before_put_is_miss(self, tmp_path):
        assert store_at(tmp_path).get(trace_spec()) is None

    def test_put_get_round_trips_the_result(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        result = spec.run()
        key = store.put(spec, result)
        assert key == spec_digest(spec)
        cached = store.get(spec)
        assert cached == result
        assert cached.row() == result.row()

    def test_key_is_the_ledger_spec_digest(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec(seed=11)
        assert store.key_for(spec) == spec_digest(spec)

    def test_distinct_specs_distinct_objects(self, tmp_path):
        store = store_at(tmp_path)
        a, b = trace_spec(seed=1), trace_spec(seed=2)
        store.put(a, a.run())
        store.put(b, b.run())
        assert len(store) == 2
        assert store.get(a).seed == 1
        assert store.get(b).seed == 2

    def test_instrumentation_never_changes_the_key(self, tmp_path):
        # Fingerprints exclude instrument/profile on purpose; cacheable()
        # is what keeps instrumented runs out of the cache.
        store = store_at(tmp_path)
        plain = trace_spec()
        instrumented = trace_spec(instrument=True)
        assert store.key_for(plain) == store.key_for(instrumented)

    def test_layout_is_prefix_sharded(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        hexdigest = key.split(":", 1)[1]
        path = store.object_path(key)
        assert path.endswith(os.path.join(hexdigest[:2], hexdigest + ".pkl"))
        assert os.path.exists(path)

    def test_keys_sorted_and_len(self, tmp_path):
        store = store_at(tmp_path)
        for seed in range(4):
            spec = trace_spec(seed=seed)
            store.put(spec, spec.run())
        keys = store.keys()
        assert keys == sorted(keys) and len(store) == 4


class TestIntegrity:
    def test_corrupted_payload_is_a_miss_and_evicted(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        path = store.object_path(key)
        with open(path, "rb") as fp:
            entry = pickle.load(fp)
        entry["payload"] = entry["payload"][:-4] + b"\x00\x00\x00\x00"
        with open(path, "wb") as fp:
            pickle.dump(entry, fp)
        before = store.counter.evictions
        assert store.get(spec) is None
        assert not os.path.exists(path)  # evicted, self-healing
        assert store.counter.evictions == before + 1

    def test_truncated_object_file_is_a_miss(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        path = store.object_path(key)
        with open(path, "rb") as fp:
            blob = fp.read()
        with open(path, "wb") as fp:
            fp.write(blob[: len(blob) // 2])
        assert store.get(spec) is None

    def test_verify_reports_without_evicting(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        assert store.verify() == []
        path = store.object_path(key)
        with open(path, "rb") as fp:
            entry = pickle.load(fp)
        entry["payload"] = b"not the payload"
        with open(path, "wb") as fp:
            pickle.dump(entry, fp)
        problems = store.verify()
        assert problems and "integrity digest" in problems[0]
        assert os.path.exists(path)  # verify() inspects, never deletes

    def test_has_does_not_touch_counters(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        hits, misses = store.counter.hits, store.counter.misses
        assert store.has(key)
        assert not store.has("sha256:" + "0" * 64)
        assert (store.counter.hits, store.counter.misses) == (hits, misses)


class TestInvalidation:
    def test_version_mismatch_is_a_miss_and_evicts(self, tmp_path):
        spec = trace_spec()
        writer = store_at(tmp_path, repro_version="0.9.0")
        key = writer.put(spec, spec.run())
        reader = store_at(tmp_path)  # current library version
        before = reader.counter.evictions
        assert reader.get(spec) is None
        assert reader.counter.evictions == before + 1
        assert not os.path.exists(reader.object_path(key))

    def test_engine_mismatch_is_a_miss(self, tmp_path):
        spec = trace_spec()
        writer = store_at(tmp_path, engine="step-loop/0")
        writer.put(spec, spec.run())
        reader = store_at(tmp_path, engine=ENGINE_REVISION)
        assert reader.get(spec) is None

    def test_spec_change_is_a_new_cell(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec(max_steps=40)
        store.put(spec, spec.run())
        assert store.get(trace_spec(max_steps=41)) is None

    def test_schema_field_pins_the_format(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        key = store.put(spec, spec.run())
        with open(store.object_path(key), "rb") as fp:
            entry = pickle.load(fp)
        assert entry["schema"] == CACHE_SCHEMA


class TestTelemetry:
    def test_hit_miss_counters_book_probes(self, tmp_path):
        store = store_at(tmp_path)
        spec = trace_spec()
        h0, m0 = store.counter.hits, store.counter.misses
        assert store.get(spec) is None  # miss
        store.put(spec, spec.run())
        assert store.get(spec) is not None  # hit
        assert store.counter.hits == h0 + 1
        assert store.counter.misses == m0 + 1
        assert store.stats()["hits"] == store.counter.hits

    def test_counter_is_the_shared_cache_telemetry(self, tmp_path):
        from repro.obs.prof import cache_counter

        store = store_at(tmp_path)
        assert store.counter is cache_counter("store.results")


class TestCacheable:
    def test_plain_spec_cacheable(self):
        assert cacheable(trace_spec())

    def test_instrumented_and_profiled_bypass(self):
        assert not cacheable(trace_spec(instrument=True))
        assert not cacheable(trace_spec(profile=True))

"""BatchRunner / parallel_map: fan-out mechanics and failure capture."""

from __future__ import annotations

import os
import pickle
import threading
import time
from multiprocessing.pool import RemoteTraceback

import pytest

from repro.obs.schema import validate_bench_artifact
from repro.runner import (
    BatchRunner,
    ExperimentSpec,
    default_jobs,
    parallel_map,
)

from tests.conftest import worker_pid

LOCS = (0, 1, 2)


def trace_spec(**overrides):
    base = dict(
        detector="omega",
        locations=LOCS,
        problem="detector-trace",
        max_steps=40,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _nap(item):
    """Sleep ``item``'s seconds (raise if negative); return its index
    and where it ran."""
    index, seconds = item
    if seconds < 0:
        raise RuntimeError(f"boom {index}")
    time.sleep(seconds)
    return index, os.getpid()


#: A module-level lambda: pickle cannot find it by name.
_LAMBDA = lambda x: x  # noqa: E731


class TestParallelMap:
    def test_serial_short_circuit(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
        assert parallel_map(_square, [5], jobs=8) == [25]

    @pytest.mark.usefixtures("fan_out_everything")
    def test_order_preserved_across_workers(self):
        items = list(range(12))
        assert parallel_map(_square, items, jobs=3) == [x * x for x in items]

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_cheap_batch_runs_in_the_caller(self):
        assert parallel_map(worker_pid, range(4), jobs=2) == [os.getpid()] * 4

    @pytest.mark.parametrize(
        "seconds, in_caller",
        [
            # Each item costs past the break-even: fork after the first.
            ([0.15] * 5, 1),
            # Cheap items stay in the caller until the third one lifts
            # the mean: 0.1 s times 3 left is past the break-even.
            ([0.0, 0.0, 0.3, 0.0, 0.0, 0.0], 3),
        ],
    )
    def test_costly_batch_fans_out_in_order(self, seconds, in_caller):
        results = parallel_map(_nap, list(enumerate(seconds)), jobs=2)
        assert [index for index, _ in results] == list(range(len(seconds)))
        pids = [pid for _, pid in results]
        assert pids[:in_caller] == [os.getpid()] * in_caller
        assert os.getpid() not in pids[in_caller:]

    def test_item_raising_in_the_pool_reraises(self):
        items = [(0, 0.15), (1, 0.0), (2, -1.0), (3, 0.0)]
        with pytest.raises(RuntimeError, match="boom 2") as excinfo:
            parallel_map(_nap, items, jobs=2)
        # The pool's re-raise, as when the whole batch forked at once.
        assert isinstance(excinfo.value.__cause__, RemoteTraceback)

    def test_unpicklable_batch_fails_however_cheap(self):
        # A batch small enough to stay in the caller still needs the
        # pickling a fork pool needs; without the check it returns [1, 2].
        with pytest.raises(pickle.PicklingError):
            parallel_map(_LAMBDA, [1, 2], jobs=2)
        with pytest.raises(TypeError, match="pickle"):
            parallel_map(worker_pid, [0, threading.Lock()], jobs=2)
        # One item, or jobs=1, never forks and needs no pickling.
        assert parallel_map(_LAMBDA, [1], jobs=2) == [1]
        assert parallel_map(_LAMBDA, [1, 2], jobs=1) == [1, 2]


class TestBatchRunner:
    def test_jobs_zero_means_all_cores(self):
        assert BatchRunner(jobs=0).jobs == default_jobs()
        assert BatchRunner(jobs=None).jobs == default_jobs()
        assert BatchRunner(jobs=3).jobs == 3

    def test_failures_captured_not_raised(self):
        good = trace_spec()
        bad = trace_spec(detector="no-such-detector", label="bad")
        batch = BatchRunner(jobs=1).run([good, bad])
        assert not batch.ok and len(batch.failures) == 1
        assert batch.failures[0].label == "bad"
        assert "ValueError" in batch.failures[0].error

    def test_raise_on_error(self):
        bad = trace_spec(detector="no-such-detector", label="bad")
        with pytest.raises(RuntimeError, match="bad"):
            BatchRunner(jobs=1).run([bad], raise_on_error=True)

    @pytest.mark.usefixtures("fan_out_everything")
    def test_failures_captured_in_workers_too(self):
        specs = [trace_spec(), trace_spec(detector="no-such", label="bad")]
        batch = BatchRunner(jobs=2).run(specs)
        assert len(batch) == 2
        assert batch.results[0].ok and not batch.results[1].ok

    def test_to_bench_artifact_schema_valid(self):
        batch = BatchRunner(jobs=1).run([trace_spec()] * 2)
        doc = batch.to_bench_artifact("t01", "batch artifact test")
        assert validate_bench_artifact(doc) == []
        assert doc["metrics"]["runs"] == 2

    @pytest.mark.usefixtures("fan_out_everything")
    def test_map_uses_runner_jobs(self):
        assert BatchRunner(jobs=2).map(_square, [2, 3]) == [4, 9]

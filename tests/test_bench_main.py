"""The standalone benchmark CLI (benchmarks/_helpers.py: bench_main)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "_helpers.py"
_spec = importlib.util.spec_from_file_location("bench_helpers", _PATH)
helpers = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = helpers  # dataclasses resolve their module here
_spec.loader.exec_module(helpers)


@pytest.fixture
def recording_bench(monkeypatch, tmp_path):
    """A one-row bench whose kernel records the job count it was given;
    its artifacts land in ``tmp_path``, not the repository root."""
    monkeypatch.setattr(helpers, "_REPO_ROOT", tmp_path)
    calls = []

    def kernel(jobs=1):
        calls.append(jobs)
        return [[jobs]]

    return helpers.BenchSpec("z99", "bench_main test", kernel), calls


def test_profile_with_parallel_jobs_is_a_usage_error(
    recording_bench, tmp_path, capsys
):
    # The profiler books only the runs of its own process, so a fanned
    # out kernel would write a profile of whichever runs stayed here.
    spec, calls = recording_bench
    assert helpers.bench_main(spec, ["--profile", "--jobs", "2"]) == 2
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    assert "--profile" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--profile"], ["--profile", "--jobs", "1"]])
def test_profile_runs_the_kernel_serially(recording_bench, tmp_path, argv):
    spec, calls = recording_bench
    assert helpers.bench_main(spec, argv) == 0
    assert calls == [1]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_Z99.json",
        "PROFILE_Z99.json",
    ]

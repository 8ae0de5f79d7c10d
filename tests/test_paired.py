"""The paired harness's per-kernel summary (benchmarks/paired.py)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "paired.py"
_spec = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)


def test_medians_quartiles_ratio_and_wins():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.0, 4.0, 2.0]  # wins pairs 0, 2 and 4; ties pair 3
    summary = paired.summarize(base, change, ["r"] * 5, ["r"] * 5)
    assert summary.pairs == 5
    assert summary.base == (2.0, 3.0, 4.0)
    assert summary.change == (1.0, 2.0, 2.5)
    assert summary.ratio == pytest.approx(2.0 / 3.0)
    assert summary.wins == 3
    assert summary.rows_differ is False


def test_rows_differ_between_sides():
    summary = paired.summarize([1.0, 1.0], [1.0, 1.0], ["a", "a"], ["a", "b"])
    assert summary.rows_differ is True
    assert summary.wins == 0


def test_single_pair_has_degenerate_quartiles():
    summary = paired.summarize([0.2], [0.1], ["r"], ["r"])
    assert summary.base == (0.2, 0.2, 0.2)
    assert summary.change == (0.1, 0.1, 0.1)
    assert summary.wins == 1


def test_unequal_sample_counts_rejected():
    with pytest.raises(ValueError):
        paired.summarize([1.0, 2.0], [1.0], ["r", "r"], ["r"])


def test_row_flag_is_printed():
    summary = paired.summarize([1.0], [2.0], ["a"], ["b"])
    line = paired.format_row("e12", summary)
    assert line.startswith("e12")
    assert "wins 0/1" in line
    assert line.endswith("ROWS DIFFER")


def test_header_names_the_unit():
    # --jobs 1 keeps the CPU-time header unchanged.
    assert (
        paired.header("HEAD", 10, False, 1)
        == "paired: base HEAD vs this tree, 10 pairs, full mode, CPU s"
    )
    assert (
        paired.header("abc123", 1, True, 2)
        == "paired: base abc123 vs this tree, 1 pairs, quick mode, jobs 2, wall s"
    )

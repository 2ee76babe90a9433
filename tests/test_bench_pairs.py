"""The statistics of tools/bench_pairs.py: quartiles, wins and the verdict."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_of_ten_runs():
    # the exclusive method: positions (n + 1) / 4, (n + 1) / 2 and 3 (n + 1) / 4
    assert bench_pairs.quartiles([float(v) for v in range(1, 11)]) == (2.75, 5.5, 8.25)


def test_quartiles_ignore_order_and_keep_one_value():
    values = [0.05, 0.01, 0.04, 0.02, 0.03]
    assert bench_pairs.quartiles(values) == bench_pairs.quartiles(sorted(values))
    assert bench_pairs.quartiles(values)[1] == 0.03
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("better, expected", [("lower", 2), ("higher", 1)])
def test_wins_count_strictly_better_pairs_in_the_metric_direction(better, expected):
    old = [1.0, 2.0, 3.0, 4.0]
    new = [0.5, 2.0, 2.0, 5.0]    # lower, tie, lower, higher
    assert bench_pairs.wins(old, new, better) == expected


def test_change_is_positive_where_the_new_median_is_worse():
    assert bench_pairs.change(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert bench_pairs.change(2.0, 1.5, "lower") == pytest.approx(-0.25)
    assert bench_pairs.change(2.0, 1.5, "higher") == pytest.approx(0.25)
    assert bench_pairs.change(0.0, 0.0, "higher") == 0.0
    assert bench_pairs.change(0.0, -1.0, "higher") == math.inf


def test_verdict_reports_wide_spread_as_unresolved():
    old = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    _, median, delta, spread, k, word = bench_pairs.verdict(old, [1.3] * 10, "lower", 0.24)
    assert (median, spread, k, word) == (1.3, 0.0, 0, "worse")
    assert delta == pytest.approx(0.3)
    assert bench_pairs.verdict(old, [1.1] * 10, "lower", 0.24)[-1] == "ok"
    wide = [0.5, 0.6, 0.8, 1.0, 1.0, 1.0, 1.2, 1.4, 1.6, 1.8]
    assert bench_pairs.verdict(wide, [1.5] * 10, "lower", 0.24)[-1] == "unresolved"
    # unless every new run is better than every old one
    assert bench_pairs.verdict(wide, [0.4] * 10, "lower", 0.24)[-1] == "ok"
    assert bench_pairs.verdict(wide, [2.0] * 10, "higher", 0.24)[-1] == "ok"

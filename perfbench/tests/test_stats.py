"""The op_tail_ms percentile rule and the metric-name rules of BENCHMARK.json."""

import json

import pytest

import stats
import tracing
from conftest import ROOT


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    value, pct, n = stats.tail(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10


def test_tail_at_the_smallest_qualifying_count():
    value, pct, n = stats.tail([5.0] + [9.0] * 10)
    assert value == 5.0 and n == 11
    assert pct == pytest.approx(100 / 11)


def test_tail_below_eleven_samples_is_the_maximum():
    assert stats.tail([3, 1, 2]) == (3, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


def test_tail_counts_ties_at_the_cut_as_not_beyond():
    value, _, _ = stats.tail([1] * 5 + [7] * 20)
    assert value == 7


@pytest.mark.parametrize("name", ["wall_s", "fracops.rl_integral.self_s", "9x", "a-b.c_d"])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_benchmark_file_names_units_and_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(stats.valid_name(n) for n in names)
    assert all(stats.valid_unit(e["unit"]) for e in spec["end_to_end"] + spec["per_layer"])
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["curves", "solve", "verify"]


def test_spread_is_interquartile_share_of_median():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, med, q3 = stats.quartiles(vals)
    assert med == 3.0
    assert stats.spread(vals) == pytest.approx((q3 - q1) / 3.0)

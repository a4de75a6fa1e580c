"""`tools/ab.py`'s statistics on canned perfbench output: nothing here runs
perfbench."""

import importlib.util
import json
from argparse import Namespace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)


def run_output(metrics: dict, sha: str = "abc1234def") -> str:
    """What perfbench prints: human lines, the record line, the JSON result."""
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": v, "unit": "x"} for name, v in metrics.items()}}
    return "\n".join([
        "record " + json.dumps({"workload": "w", "git_sha": sha}),
        "  throughput_mps 1.00 1/s",
        json.dumps(result),
    ]) + "\n"


def test_the_result_is_the_last_line_and_the_commit_its_record_line():
    result = ab.last_result(run_output({"throughput_per_s": 5.0}))
    assert result["metrics"]["throughput_per_s"]["value"] == 5.0
    assert result["git_sha"] == "abc1234def"
    with pytest.raises(ValueError):
        ab.last_result("Traceback (most recent call last):\n  ...\n")


def test_traced_time_metrics_are_scaled_by_host_speed_and_the_rest_kept():
    units = {"a.cpu_us_per_msg": "us", "driver.lat_p99_ms": "ms", "a.calls": "count"}
    traced = {"a.cpu_us_per_msg": 10.0, "driver.lat_p99_ms": 2.0, "a.calls": 3.0,
              "driver.host_speed": 0.5}
    got = ab.values(ab.last_result(run_output(traced)), units)
    assert got == {"a.cpu_us_per_msg": 5.0, "a.cpu_us_per_msg.raw": 10.0,
                   "driver.lat_p99_ms": 2.0, "a.calls": 3.0, "driver.host_speed": 0.5}
    untraced = {"a.cpu_us_per_msg": 10.0}
    assert ab.values(ab.last_result(run_output(untraced)), units) == untraced


def test_a_traced_comparison_reads_each_scaled_metric_and_its_raw_twin():
    benchmark = {
        "end_to_end": [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
        "per_layer": [
            {"name": "driver.lat_p99_ms", "unit": "ms", "better": "lower"},
            {"name": "a.cpu_us_per_msg", "unit": "us", "better": "lower"},
            {"name": "a.calls", "unit": "count", "better": "lower"},
        ],
    }
    assert ab.gated(benchmark, False) == {"throughput_per_s": ("higher", 0.25, "1/s")}
    assert list(ab.gated(benchmark, True)) == [
        "driver.lat_p99_ms", "a.cpu_us_per_msg", "a.cpu_us_per_msg.raw", "a.calls"]


def test_quartiles_are_inclusive():
    assert ab.quartiles([1, 2, 3, 4, 5]) == {"q1": 2, "median": 3, "q3": 4}
    assert ab.quartiles([4, 1, 3, 2]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert ab.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_a_clear_gain_is_a_claim():
    pairs = [(100 + i, 120 + i) for i in range(10)]  # parent 100..109
    s = ab.compare(pairs, "higher", 0.25)
    assert s["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert s["change_better_pairs"] == 10
    assert s["change_vs_parent_median"] == pytest.approx(20 / 104.5)
    assert s["parent_iqr_share"] == pytest.approx(4.5 / 104.5)
    assert s["claim"] and not s["worse"]


def test_a_gain_within_the_parent_spread_or_with_too_few_wins_is_no_claim():
    # nine wins of ten, but a median move of 2 inside an interquartile range of 4.5
    pairs = [(100 + i, 102 + i) for i in range(9)] + [(109, 100)]
    s = ab.compare(pairs, "higher")
    assert s["change_better_pairs"] == 9 and not s["claim"]
    # a large move that wins only eight pairs
    pairs = [(100 + i, 150 + i) for i in range(8)] + [(108, 50), (109, 60)]
    assert not ab.compare(pairs, "higher")["claim"]


def test_lower_is_better_counts_wins_and_bounds_the_other_way():
    pairs = [(10.0, 13.0)] * 10  # 30% slower
    s = ab.compare(pairs, "lower", 0.25)
    assert s["change_better_pairs"] == 0 and s["worse"] and not s["claim"]
    assert not ab.compare(pairs, "lower", 0.35)["worse"]
    assert ab.compare([(10.0, 7.0)] * 10, "lower", 0.25)["claim"]


def test_an_a_a_run_reads_its_noise_floor():
    pairs = [(x, x) for x in (0.06, 0.08, 0.09, 0.11, 0.157)]
    s = ab.compare(pairs, "lower", 0.25)
    assert s["change_vs_parent_median"] == 0 and s["change_better_pairs"] == 0
    assert s["parent_iqr_share"] == pytest.approx((0.11 - 0.08) / 0.09)


def test_record_appends_an_entry_in_the_trajectory_shape(tmp_path):
    path = tmp_path / "BENCH_w.json"
    args = Namespace(seconds=30.0, trace=False)
    stats = {"throughput_per_s": ab.compare([(100 + i, 120 + i) for i in range(10)], "higher")}
    for _ in range(2):
        item = ab.entry("a change", "abc1234", "w", args, list(range(601, 611)), stats,
                        {"parent": 0, "change": 0})
        ab.append_entry(path, "w", item)
    doc = json.loads(path.read_text())
    assert doc["workload"] == "w" and len(doc["trajectory"]) == 2
    item = doc["trajectory"][0]
    assert item["parent"] == "abc1234" and item["pairs"] == 10
    assert item["command"] == "python3 perfbench/run.py --workload w --seed SEED --seconds 30 --trace 0"
    assert "seeds 601-610, parent first in pairs 1, 3, 5, 7, 9" in item["procedure"]
    metric = item["metrics"]["throughput_per_s"]
    assert metric["parent"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert metric["change_better_pairs"] == 10
    assert set(metric) == {"parent", "change", "parent_iqr_share", "change_vs_parent_median",
                           "ratio_ci95", "change_better_pairs"}
    lo, hi = metric["ratio_ci95"]
    assert 0 < lo <= metric["change_vs_parent_median"] <= hi


def test_the_bootstrap_interval_of_canned_runs_is_seeded_and_brackets_the_median_ratio():
    parent = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 97.0, 105.0, 100.5]
    change = [112.0, 115.0, 111.0, 118.0, 109.0, 113.0, 116.0, 110.0, 114.0, 117.0]
    units = {"throughput_per_s": "1/s"}
    pairs = [
        (ab.values(ab.last_result(run_output({"throughput_per_s": p})), units)["throughput_per_s"],
         ab.values(ab.last_result(run_output({"throughput_per_s": c})), units)["throughput_per_s"])
        for p, c in zip(parent, change)
    ]
    s = ab.compare(pairs, "higher", 0.25)
    lo, hi = s["ratio_ci95"]
    assert 0 < lo < s["change_vs_parent_median"] < hi
    # the bounds are ratios some resample's medians can take
    assert lo >= min(change) / max(parent) - 1 and hi <= max(change) / min(parent) - 1
    assert ab.bootstrap_ratio(pairs) == ab.bootstrap_ratio(pairs) == (lo, hi)  # seeded
    assert "ci95 [" in ab.report("throughput_per_s", s)


def test_the_bootstrap_interval_of_an_a_a_run_is_zero_and_of_one_pair_its_ratio():
    assert ab.bootstrap_ratio([(5.0, 5.0), (7.0, 7.0), (6.0, 6.0)]) == (0.0, 0.0)
    assert ab.bootstrap_ratio([(10.0, 11.0)]) == pytest.approx((0.1, 0.1))
    assert ab.bootstrap_ratio([(0.0, 1.0)] * 4) == (0.0, 0.0)  # no parent median, no ratio

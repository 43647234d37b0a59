"""The summary of tests/bench_pairs.py on hand-made pair records (no benchmark run)."""

import json
import math
from pathlib import Path

import pytest

import bench_pairs

METRICS = [{"name": "jobs_per_s", "better": "higher", "bound": 0.25},
           {"name": "iters_total", "better": "lower", "bound": 0.1}]


def row(failed=0, **values):
    return {"failed": failed, "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}


def pair(parent, change, first="change"):
    return {"first": first, "parent": parent, "change": change}


def record(pairs, aa=None):
    return {"pairs": {"w": pairs}, "aa": {"w": aa} if aa else {}}


def test_quartiles_medians_wins_and_bounds():
    ten = {"iters_total": 10}
    rec = record([pair(row(jobs_per_s=100.0, **ten), row(jobs_per_s=110.0, **ten)),
                  pair(row(jobs_per_s=104.0, **ten), row(jobs_per_s=103.0, **ten), first="parent"),
                  pair(row(jobs_per_s=102.0, **ten), row(1, jobs_per_s=120.0, iters_total=12))],
                 aa=[row(jobs_per_s=100.0, **ten), row(jobs_per_s=105.0, **ten)])
    s = bench_pairs.summarize(rec, METRICS)["w"]
    assert s["pairs"] == 3
    jobs = s["jobs_per_s"]
    assert jobs["parent_q1_median_q3"] == [101.0, 102.0, 103.0]
    assert jobs["change_q1_median_q3"] == [106.5, 110.0, 115.0]
    assert jobs["median_rel_change"] == pytest.approx(8.0 / 102.0)
    assert jobs["change_wins"] == "2/3"  # higher is better
    assert jobs["medians_apart_more_than_parent_iqr"]  # 8 apart against a spread of 2
    assert jobs["within_bound"] and jobs["bound"] == 0.25
    assert jobs["aa_rel_diff"] == pytest.approx(0.05)
    iters = s["iters_total"]
    assert iters["change_wins"] == "0/3"  # lower is better, and none is lower
    assert iters["median_rel_change"] == 0.0 and iters["within_bound"]
    assert s["identical_in_every_pair"] == {"iters_total": False}
    assert s["failed_parent_change"] == [[0, 0], [0, 0], [0, 1]]


@pytest.mark.parametrize("better,change,within", [
    ("higher", 74.0, False), ("higher", 76.0, True),
    ("lower", 126.0, False), ("lower", 124.0, True)])
def test_bound_is_taken_in_the_worse_direction(better, change, within):
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    s = bench_pairs.summarize(record([pair(row(m=100.0), row(m=change))]), metrics)["w"]
    assert s["m"]["within_bound"] is within
    assert s["m"]["parent_q1_median_q3"] == [100.0] * 3  # one pair: no spread
    assert "aa_rel_diff" not in s["m"]


def test_zero_parent_median():
    metrics = [{"name": "m", "better": "higher", "bound": 0.05}]
    same = bench_pairs.summarize(record([pair(row(m=0.0), row(m=0.0))]), metrics)["w"]["m"]
    worse = bench_pairs.summarize(record([pair(row(m=0.0), row(m=-1.0))]), metrics)["w"]["m"]
    assert same["median_rel_change"] == 0.0 and same["within_bound"]
    assert worse["median_rel_change"] == -math.inf and not worse["within_bound"]


def test_identical_metrics_and_the_benchmarks_own_list():
    # the metric list is BENCHMARK.json's; a record whose runs keep X's bits
    # reads identical iters_total, fwd_err_digits_min and ok_frac
    metrics = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                         .read_text())["end_to_end"]
    values = {m["name"]: 1.0 for m in metrics}
    rec = record([pair(row(**values), row(**{**values, "jobs_per_s": 1.1}))] * 2)
    s = bench_pairs.summarize(rec, metrics)["w"]
    assert s["identical_in_every_pair"] == dict.fromkeys(bench_pairs.SAME_BITS, True)
    assert s["jobs_per_s"]["change_wins"] == "2/2"
    lines = bench_pairs.report_lines({"w": s}, metrics)
    assert lines[0] == "w: 2 pairs" and len(lines) == len(metrics) + 3
    assert "identical in every pair: iters_total yes" in lines[-2]

"""tools/bench_pairs.py on synthetic run records; no benchmark runs here."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "rate", "better": "higher", "bound": 0.25},
            {"name": "time_s", "better": "lower", "bound": 0.25}]


def run(seed, side, rate=None, time_s=None, rc=0, workload="w"):
    metrics = {k: v for k, v in (("rate", rate), ("time_s", time_s)) if v is not None}
    return {"workload": workload, "seed": seed, "side": side, "first": "parent", "rc": rc,
            "correct": bool(metrics), "metrics": metrics}


def test_wins_for_a_higher_and_a_lower_metric():
    runs = []
    for seed, (parent, change) in enumerate([(10.0, 11.0), (10.0, 12.0), (12.0, 11.0),
                                             (10.0, 10.0)], start=1):
        runs += [run(seed, "parent", parent, 1.0 / parent), run(seed, "change", change,
                                                                   1.0 / change)]
    summary = bench_pairs.summarize(runs, DECLARED)["w"]
    assert summary["pairs"] == 4 and summary["seeds"] == [1, 2, 3, 4]
    assert summary["failed"] == {"parent": 0, "change": 0}
    rate, time_s = summary["metrics"]["rate"], summary["metrics"]["time_s"]
    assert rate["change_wins"] == 2 and time_s["change_wins"] == 2  # the tie counts for neither
    assert rate["parent_median"] == 10.0 and rate["change_median"] == 11.0
    assert (rate["parent_q1"], rate["parent_q3"]) == (10.0, 10.5)
    assert rate["change_worse_by"] == -0.1
    assert time_s["change_worse_by"] < 0  # lower is better: the change is faster
    assert rate["parent_all"] == [10.0, 10.0, 12.0, 10.0]
    assert (rate["better"], rate["bound"], time_s["better"]) == ("higher", 0.25, "lower")


def test_a_failed_run_is_kept_and_counted():
    record, report = bench_pairs.parse_run(1, "", "Traceback ...\nMemoryError\n")
    assert report is None
    assert record["rc"] == 1 and record["metrics"] == {} and "MemoryError" in record["error"]
    unchecked = {**run(3, "change", 99.0, 0.01), "correct": False}  # failed its checks
    runs = [run(1, "parent", 10.0, 0.1), {"workload": "w", "seed": 1, "side": "change",
                                          "first": "parent", **record},
            run(2, "change", 12.0, 0.2), run(2, "parent", 11.0, 0.1),
            run(3, "parent", 10.0, 0.1), unchecked]
    summary = bench_pairs.summarize(runs, DECLARED)["w"]
    assert summary["pairs"] == 3
    assert summary["failed"] == {"parent": 0, "change": 2}
    rate = summary["metrics"]["rate"]
    assert rate["parent_all"] == [10.0, 11.0, 10.0] and rate["change_all"] == [12.0]
    assert rate["change_wins"] == 1
    assert summary["metrics"]["time_s"]["change_wins"] == 0


def test_parse_run_reads_the_report_and_result_lines():
    report = {"report": {"digest": "abc", "environment": {}}}
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"rate": {"value": 2.5, "unit": "1/ref"}}}
    stdout = "\n".join([json.dumps(report), json.dumps(result)])
    record, _ = bench_pairs.parse_run(0, stdout, "")
    assert record == {"rc": 0, "attempted": 5, "failed": 0, "correct": True, "digest": "abc",
                      "metrics": {"rate": 2.5}}
    record, _ = bench_pairs.parse_run(0, json.dumps(report), "")
    assert record["error"] == "no result line" and bench_pairs.run_failed(record)


@pytest.mark.parametrize("text,seeds", [("1-3", [1, 2, 3]), ("4", [4])])
def test_parse_seeds(text, seeds):
    assert bench_pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("workloads", [["a"], ["a", "b"], ["a", "b", "c"]])
def test_first_side_alternates_within_each_workload(workloads):
    plan = list(bench_pairs.schedule([1, 2, 3, 4], workloads))
    assert [(seed, w) for seed, w, _ in plan] == [(s, w) for s in [1, 2, 3, 4] for w in workloads]
    assert all(sorted(order) == sorted(bench_pairs.SIDES) for _, _, order in plan)
    for workload in workloads:
        firsts = [order[0] for _, w, order in plan if w == workload]
        assert firsts == ["parent", "change", "parent", "change"]


def test_digests_differ_lists_the_seeds_where_both_sides_passed():
    runs = []
    for seed, (parent, change, rc) in enumerate([("a", "a", 0), ("a", "b", 0), ("a", "c", 1),
                                                 ("d", "e", 0)], start=1):
        runs += [{**run(seed, "parent", 10.0, 0.1), "digest": parent},
                 {**run(seed, "change", 11.0, 0.1, rc=rc), "digest": change}]
    runs.append({**run(5, "parent", 10.0, 0.1), "digest": "f"})  # its change run is missing
    assert bench_pairs.summarize(runs, DECLARED)["w"]["digests_differ"] == [2, 4]

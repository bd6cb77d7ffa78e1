"""A/B benchmark pairs: run the declared benchmark in a parent and a change
checkout, one run at a time, and write a BENCH_*.json record of every run.

    python3 tools/bench_pairs.py --parent ../hsinet-parent --change . --tag row_sums \\
        [--workloads pretrain_x3 ...] [--seeds 1-10]

Each (seed, workload) is one pair: the benchmark command of BENCHMARK.json
(`bench/run.py`) runs in each directory with `--workload W --seed S
--seconds T --trace 0`, and the side that runs first alternates seed by seed,
so within each workload it alternates pair by pair. The run length T, the
metric names, directions and bounds come from the change's BENCHMARK.json,
which is read, never written. The record goes to BENCH_<tag>.json in the
working directory and is rewritten after every run, so a stopped campaign
keeps what it measured. A run that exits non-zero or prints no result line is
recorded with its exit code and the tail of its stderr, and a run that fails
its checks is recorded as it is; both count as failed in the summary, never
dropped, and their metrics are left out of the medians and the pairs won.

The summary gives, per workload, the seeds whose two runs both passed but
printed different parameter digests (`digests_differ`), and per metric each
side's median and the parent's quartiles (linear interpolation), the change's
relative loss against the parent's median (`change_worse_by`, negative when
the change is better) and the number of pairs the change won, ties counting
for neither side.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    """'1-10' or '4' as a list of ints."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def parse_run(rc, stdout, stderr):
    """The record of one benchmark run from its exit code and output: the
    result line's checks and metric values, the report's digest, or the
    error when there is no result line."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    result = report = None
    for line in lines:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "report" in obj:
            report = obj["report"]
        elif "metrics" in obj:
            result = obj
    record = {"rc": rc, "attempted": None, "failed": None, "correct": False, "digest": None,
              "metrics": {}}
    if report is not None:
        record["digest"] = report.get("digest")
    if result is not None:
        record.update(attempted=result["attempted"], failed=result["failed"],
                      correct=result["correct"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    if rc != 0 or result is None:
        record["error"] = stderr.strip()[-2000:] or "no result line"
    return record, report


def run_failed(record):
    return record["rc"] != 0 or not record["metrics"] or not record["correct"]


def schedule(seeds, workloads):
    """(seed, workload, sides in run order) for every pair. The first side
    alternates seed by seed, so it alternates within each workload whatever
    the number of workloads."""
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            yield seed, workload, order


def _quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return q[0], q[2]


def _better(a, b, direction):
    return a > b if direction == "higher" else a < b


def summarize(runs, declared):
    """Per-workload summary of the run records. `declared` is BENCHMARK.json's
    `end_to_end` list of {name, better, bound}."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r
        measured = {seed: {side: r["metrics"] for side, r in pair.items() if not run_failed(r)}
                    for seed, pair in pairs.items()}
        entry = {"pairs": len(pairs), "seeds": sorted(pairs),
                 "failed": {side: sum(run_failed(r) for r in mine if r["side"] == side)
                            for side in SIDES},
                 "digests_differ": sorted(
                     seed for seed, pair in pairs.items()
                     if len(measured[seed]) == len(SIDES)
                     and pair["parent"].get("digest") != pair["change"].get("digest")),
                 "metrics": {}}
        for metric in declared:
            name, direction = metric["name"], metric["better"]
            values = {side: [measured[s][side][name] for s in sorted(measured)
                             if name in measured[s].get(side, {})]
                      for side in SIDES}
            if not values["parent"] or not values["change"]:
                continue
            parent_median = statistics.median(values["parent"])
            change_median = statistics.median(values["change"])
            q1, q3 = _quartiles(values["parent"])
            worse = (change_median - parent_median) / parent_median
            if direction == "higher":
                worse = -worse
            wins = sum(_better(m["change"][name], m["parent"][name], direction)
                       for m in measured.values()
                       if all(name in m.get(side, {}) for side in SIDES))
            entry["metrics"][name] = {
                "better": direction, "bound": metric["bound"],
                "parent_median": round(parent_median, 6),
                "change_median": round(change_median, 6),
                "parent_q1": round(q1, 6), "parent_q3": round(q3, 6),
                "change_worse_by": round(worse, 4), "change_wins": wins,
                "parent_all": [round(v, 4) for v in values["parent"]],
                "change_all": [round(v, 4) for v in values["change"]],
            }
        summary[workload] = entry
    return summary


def _run(directory, command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=directory, capture_output=True, text=True)
    record, report = parse_run(proc.returncode, proc.stdout, proc.stderr)
    record["wall_s"] = round(time.perf_counter() - t0, 1)
    return record, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--tag", required=True, help="the record is written to BENCH_<tag>.json")
    ap.add_argument("--workloads", nargs="+", help="default: every declared workload")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out = Path(f"BENCH_{args.tag}.json")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"tag": args.tag,
              "command": " ".join(bench["command"]) + f" --workload W --seed S "
                         f"--seconds {seconds:g} --trace 0",
              "method": "alternating pairs (the side that runs first alternates seed by seed, "
                        "so pair by pair within each workload), each side run from its own "
                        "directory, one run at a time",
              "environment": None, "commits": {}, "summary": {}, "runs": []}
    for seed, workload, order in schedule(args.seeds, workloads):
        for side in order:
            run, report = _run(dirs[side], bench["command"], workload, seed, seconds)
            record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                   "first": order[0], **run})
            if report is not None:
                env = dict(report["environment"])
                record["commits"].setdefault(side, env.pop("git_commit", None))
                record["environment"] = record["environment"] or env
            record["summary"] = summarize(record["runs"], bench["end_to_end"])
            out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{workload} seed={seed} {side}: rc={run['rc']} "
                  f"{json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Collect benchmark runs, report their spread, and compare result sets.

    python3 perfbench/compare.py collect OUT [--root DIR] [options]
    python3 perfbench/compare.py pair OUT PARENT_ROOT CHANGE_ROOT [options]
    python3 perfbench/compare.py spread OUT
    python3 perfbench/compare.py diff PARENT CHANGE

options: [--runs 10] [--first-seed 1] [--seconds S] [--trace 0|1]
         [--workload NAME ...]

A result set is a directory holding one `<workload>.jsonl` file per
workload: one record per line, as `run.py` prints it last, with the seed
it ran under added. `collect` runs the `run.py` of one checkout (`--root`,
by default this one) once per seed and appends to such a directory.

`pair` measures a change against its parent: for every workload and
seed it runs the parent checkout and the change checkout back to back,
alternating from seed to seed which side runs first, and appends to
`OUT/parent` and `OUT/change`. Each checkout builds into its own
`.bench_build`. The host's speed drifts over minutes, so only runs made
next to each other are compared. Giving the same checkout twice measures
how far two sets of the same code disagree.

`spread` prints, for every workload and end-to-end metric of
`BENCHMARK.json`, the median, the quartiles from
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, next to the metric's bound. A spread that is not below a third of
its bound is flagged WIDE.

`diff` pairs the runs of the two sets by seed and prints one row per
workload and end-to-end metric: each side's median and quartiles, the
median of the per-pair ratios change / parent with the spread of those
ratios, how many pairs the change won (ties count for neither side), and
a verdict:

* improved: the change won at least nine tenths of the pairs and the
  median ratio is better than 1 by more than the parent's own spread;
* worse: the median ratio is worse than 1 by more than the metric's
  bound;
* unresolved: otherwise, when the spread of the ratios is wider than the
  bound, unless every change run beats every parent run;
* unchanged: otherwise.

Records whose `correct` is false are listed and make the exit status 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def read_set(directory):
    """{workload: [record, ...]} of a result-set directory."""
    result = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as f:
                records = [json.loads(line) for line in f if line.strip()]
            result[name[: -len(".jsonl")]] = records
    return result


def run_once(root, workload, seed, seconds, trace):
    """The record of one run of `root`'s benchmark, with its seed added."""
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{root} {workload} seed {seed}: run.py exited with status {proc.returncode}")
    record = json.loads(lines[-1])
    record["seed"] = seed
    return record


def append(out, workload, record, label):
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, workload + ".jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    shown = " ".join(f"{k}={v['value']:.6g}" for k, v in record["metrics"].items())
    print(f"{label}{workload} seed {record['seed']} correct={record['correct']} {shown}",
          flush=True)


def seeds_and_workloads(args, bench):
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    return seconds, [(w, s) for w in workloads for s in seeds]


def collect(args, bench):
    seconds, runs = seeds_and_workloads(args, bench)
    root = os.path.abspath(args.root)
    for workload, seed in runs:
        append(args.out, workload, run_once(root, workload, seed, seconds, args.trace), "")
    return 0


def pair(args, bench):
    seconds, runs = seeds_and_workloads(args, bench)
    sides = [("parent", os.path.abspath(args.parent_root)),
             ("change", os.path.abspath(args.change_root))]
    for i, (workload, seed) in enumerate(runs):
        for label, root in sides if i % 2 == 0 else sides[::-1]:
            record = run_once(root, workload, seed, seconds, args.trace)
            append(os.path.join(args.out, label), workload, record, f"{label} ")
    return 0


def values(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def summary(vals):
    """(median, q1, q3, quartile distance as a share of |median|)."""
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def count_incorrect(label, results):
    bad = 0
    for workload, records in sorted(results.items()):
        seeds = [r.get("seed") for r in records if not r.get("correct")]
        if seeds:
            print(f"{label}{workload}: incorrect records for seeds {seeds}")
            bad += len(seeds)
    return bad


def spread(args, bench):
    results = read_set(args.out)
    bad = count_incorrect("", results)
    print(f"{'workload':<14} {'metric':<17} {'n':>3} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>7} {'bound':>6}")
    for workload, records in sorted(results.items()):
        for metric in bench["end_to_end"]:
            vals = values(records, metric["name"])
            if len(vals) < 2:
                continue
            med, q1, q3, rel = summary(vals)
            wide = rel >= metric["bound"] / 3
            print(f"{workload:<14} {metric['name']:<17} {len(vals):>3} {med:>13.6g} {q1:>13.6g} "
                  f"{q3:>13.6g} {rel:>7.2%} {metric['bound']:>6.2f}{'  WIDE' if wide else ''}")
    return 1 if bad else 0


def better(metric, a, b):
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric, parent, change, pairs):
    """(pairs won, median ratio, its spread, verdict) of one metric."""
    ratios = [c / p for p, c in pairs if p]
    if len(ratios) < 2:
        return 0, float("nan"), float("nan"), "unresolved"
    ratio, _, _, spread_r = summary(ratios)
    won = sum(better(metric, c, p) for p, c in pairs)
    worse_by = ratio - 1 if metric["better"] == "lower" else 1 - ratio
    parent_spread = summary(parent)[3]
    if won >= 0.9 * len(pairs) and -worse_by > parent_spread:
        return won, ratio, spread_r, "improved"
    if worse_by > metric["bound"]:
        return won, ratio, spread_r, "worse"
    dominates = all(better(metric, c, p) for c in change for p in parent)
    if spread_r > metric["bound"] and not dominates:
        return won, ratio, spread_r, "unresolved"
    return won, ratio, spread_r, "unchanged"


def diff(args, bench):
    parent, change = read_set(args.parent), read_set(args.change)
    bad = count_incorrect("parent ", parent) + count_incorrect("change ", change)
    print(f"{'workload':<14} {'metric':<17} {'parent median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'ratio':>7} {'spread':>7} {'won':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        by_seed = {r.get("seed"): r for r in parent[workload]}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pv, cv = values(parent[workload], name), values(change[workload], name)
            if len(pv) < 2 or len(cv) < 2:
                continue
            pairs = [(by_seed[r["seed"]]["metrics"][name]["value"], r["metrics"][name]["value"])
                     for r in change[workload]
                     if r.get("seed") in by_seed and name in r["metrics"]
                     and name in by_seed[r["seed"]]["metrics"]]
            won, ratio, spread_r, result = verdict(metric, pv, cv, pairs)
            pm, pq1, pq3, _ = summary(pv)
            cm, cq1, cq3, _ = summary(cv)
            print(f"{workload:<14} {name:<17} {f'{pm:.6g} [{pq1:.6g}, {pq3:.6g}]':>38} "
                  f"{f'{cm:.6g} [{cq1:.6g}, {cq3:.6g}]':>38} {ratio:>7.3f} {spread_r:>7.2%} "
                  f"{f'{won}/{len(pairs)}':>6}  {result}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run one checkout once per seed into a result set")
    c.add_argument("out")
    c.add_argument("--root", default=ROOT)
    p = sub.add_parser("pair", help="run a parent and a change checkout in alternating pairs")
    p.add_argument("out")
    p.add_argument("parent_root")
    p.add_argument("change_root")
    for runner in (c, p):
        runner.add_argument("--runs", type=int, default=10)
        runner.add_argument("--first-seed", type=int, default=1)
        runner.add_argument("--seconds", type=int)
        runner.add_argument("--trace", type=int, choices=(0, 1), default=0)
        runner.add_argument("--workload", action="append")
    s = sub.add_parser("spread", help="medians, quartiles and spread of a result set")
    s.add_argument("out")
    d = sub.add_parser("diff", help="compare a change's result set with its parent's")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()
    bench = load_benchmark()
    commands = {"collect": collect, "pair": pair, "spread": spread, "diff": diff}
    return commands[args.command](args, bench)


if __name__ == "__main__":
    sys.exit(main())

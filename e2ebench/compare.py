#!/usr/bin/env python3
"""Compare a parent checkout against a change, end to end.

    python3 e2ebench/compare.py --parent ../parent --change . \\
        [--workloads suite-exact,mixed-warm,scale-flp] [--seed-base 1]

Runs the benchmark in ten alternating pairs (parent first on even pairs,
change first on odd ones), one seed per pair, each run as long as
BENCHMARK.json's run_seconds, identical settings on both sides.  For
every workload x end-to-end metric it prints each side's median and
quartiles, the change's win share over the pairs (ties count for
neither side) and a verdict:

  gain         the change wins >= 9/10 of the pairs and the medians differ
               by more than the parent's own quartile spread;
  regression   the change's median is worse than the parent's by more
               than the metric's bound in BENCHMARK.json;
  unresolved   a side's quartile spread exceeds the bound (unless every
               change run beats every parent run) -- not "unchanged";
  same         within the bound.

It also checks, seed by seed, that both sides printed the same result
CRC and the same exact work counters, and reports where they differ.
Keep --seed-base 104729 (the held-out seeds) for the final check of a
claim; develop with other seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def run_side(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("e2ebench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("compare.py: %s failed on %s seed %d" % (root, workload,
                                                           seed))
    lines = proc.stdout.rstrip("\n").split("\n")
    crc = next((l.split()[-1] for l in lines if l.startswith("rounds ")), "")
    counters = [l for l in lines if l.startswith("counter ")]
    return json.loads(lines[-1])["metrics"], crc, counters


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"
    bound = spec["bound"]

    def better(a, b):
        return a < b if lower else a > b

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    share = wins / len(parent)
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) \
        if pmed else 0.0
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    dominates = all(better(c, p) for c in change for p in parent)
    if share >= 0.9 and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        v = "gain"
    elif worse_by > bound:
        v = "regression"
    elif spread > bound and not dominates:
        v = "unresolved"
    else:
        v = "same"
    return (pq1, pmed, pq3), (cq1, cmed, cq3), share, worse_by, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]

    mismatches = []
    rows = []
    for workload in workloads:
        values = {"parent": {}, "change": {}}
        for i in range(PAIRS):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change",
                                                             "parent"]
            seen = {}
            for side in order:
                root = args.parent if side == "parent" else args.change
                metrics, crc, counters = run_side(root, workload, seed,
                                                  seconds)
                seen[side] = (crc, counters)
                for name, m in metrics.items():
                    values[side].setdefault(name, []).append(m["value"])
            if seen["parent"][0] != seen["change"][0]:
                mismatches.append("%s seed %d: result CRC %s -> %s" % (
                    workload, seed, seen["parent"][0], seen["change"][0]))
            if seen["parent"][1] != seen["change"][1]:
                mismatches.append("%s seed %d: work counters differ" % (
                    workload, seed))
        for name, spec in specs.items():
            p = values["parent"].get(name)
            c = values["change"].get(name)
            if p and c:
                rows.append((workload, name, spec["unit"]) +
                            verdict(spec, p, c))

    print("%-12s %-20s %-6s %32s %32s %6s %8s %s" % (
        "workload", "metric", "unit", "parent q1/median/q3",
        "change q1/median/q3", "wins", "worse", "verdict"))
    for (w, name, unit, pq, cq, share, worse, v) in rows:
        print("%-12s %-20s %-6s %32s %32s %6.2f %+7.1f%% %s" % (
            w, name, unit, "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq,
            share, 100 * worse, v))
    print("pairs per workload: %d, run length %d s, seeds %d..%d" % (
        PAIRS, seconds, args.seed_base, args.seed_base + PAIRS - 1))
    for m in mismatches:
        print("DIFFERS: " + m)
    if not mismatches:
        print("result CRCs and work counters identical on every seed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads search,fleet]
                                [--results-dir DIR] [--no-run]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run length from BENCHMARK.json (unless --no-run, which only reads an
existing results directory), then prints, per workload and metric, the
median, the quartile spread (Q3 - Q1) / median, and the metric's bound.
A spread over a third of its bound is flagged; setup_s is listed but has
no spread limit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(workloads))
    p.add_argument("--results-dir",
                   default=os.path.join(ROOT, ".bench_build", "spread"))
    p.add_argument("--no-run", action="store_true")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    chosen = args.workloads.split(",")
    os.makedirs(args.results_dir, exist_ok=True)

    if not args.no_run:
        for w in chosen:
            for s in seeds:
                cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                       "--workload", w, "--seed", str(s),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0",
                       "--results-dir", args.results_dir]
                rc = subprocess.call(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
                print("ran %s seed %d: exit %d" % (w, s, rc), file=sys.stderr)

    bad = 0
    for w in chosen:
        results = []
        for s in seeds:
            path = os.path.join(args.results_dir,
                                "%s-trace0-seed%d.json" % (w, s))
            if os.path.exists(path):
                with open(path) as f:
                    results.append(json.load(f)["result"])
        if not results:
            continue
        incorrect = sum(1 for r in results if not r["correct"])
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print("%s: %d runs, %d incorrect, %d/%d requests failed"
              % (w, len(results), incorrect, failed, attempted))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results
                    if m["name"] in r["metrics"]]
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            limit = m["bound"] / 3
            flag = ""
            if m["name"] != "setup_s" and spread > limit:
                flag = "  <-- over bound/3"
                bad += 1
            print("  %-14s median %12.4f %-4s spread %6.3f  bound %.2f%s"
                  % (m["name"], med, m["unit"], spread, m["bound"], flag))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()

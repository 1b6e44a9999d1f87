#!/usr/bin/env python3
"""Compares two sets of benchmark results (stdlib only).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR [--details]

Each directory holds result files written by perfbench/run.py
(<workload>-trace0-seed<n>.json); runs of the two sides are paired by
seed. For every (workload, end-to-end metric) of BENCHMARK.json:

  unresolved  the base's own quartile spread, (Q3 - Q1) / median, is
              wider than the metric's bound, and not every change run
              reads better than every base run;
  improved    the change wins at least 9 of every 10 seed pairs (ties
              count for neither side) and the medians differ by more
              than the base's quartile spread;
  worse       the change's median is worse than the base's median by
              more than the bound (a share of the base median);
  no worse    otherwise.

Prints one row per workload; exits 1 when any metric is worse.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VERDICTS = ("improved", "no worse", "worse", "unresolved")


def load(directory):
    """{workload: {seed: metrics}} of the untraced runs in `directory`."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0-seed*.json")):
        if not re.search(r"-seed\d+\.json$", path):
            continue  # smoke runs
        with open(path) as f:
            run = json.load(f)
        if not run["result"]["correct"]:
            print("warning: %s failed its output check" % path,
                  file=sys.stderr)
        metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        out.setdefault(run["workload"], {})[run["seed"]] = metrics
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def verdict(metric, base, change):
    """Returns (verdict, detail) for one metric's paired runs."""
    lower = metric["better"] == "lower"
    gain = (lambda b, c: b - c) if lower else (lambda b, c: c - b)
    seeds = sorted(set(base) & set(change))
    if not seeds:
        return "unresolved", "no paired runs"
    a = [base[s] for s in seeds]
    b = [change[s] for s in seeds]
    med_a, med_b = statistics.median(a), statistics.median(b)
    wins = sum(1 for s in seeds if gain(base[s], change[s]) > 0)
    iqr_a = spread(a) * med_a if med_a else float("inf")
    worse_frac = -gain(med_a, med_b) / med_a if med_a else 0.0
    detail = "base %.4g, change %.4g (%+.1f%%), wins %d/%d" % (
        med_a, med_b, 100.0 * (med_b - med_a) / med_a if med_a else 0.0,
        wins, len(seeds))
    if spread(a) > metric["bound"]:
        if min(gain(x, y) for x in a for y in b) > 0:
            return "improved", detail
        return "unresolved", detail
    if wins * 10 >= 9 * len(seeds) and abs(med_b - med_a) > iqr_a \
            and gain(med_a, med_b) > 0:
        return "improved", detail
    if worse_frac > metric["bound"]:
        return "worse", detail
    return "no worse", detail


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--details", action="store_true",
                   help="also print every metric's medians and wins")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, change = load(args.base), load(args.change)

    any_worse = False
    print("%-10s %s" % ("workload", " | ".join(VERDICTS)))
    for w in [w["name"] for w in bench["workloads"]]:
        if w not in base or w not in change:
            print("%-10s (no results on %s)" % (
                w, "either side" if w not in base and w not in change
                else ("base" if w not in base else "change")))
            continue
        rows = {v: [] for v in VERDICTS}
        details = []
        for m in bench["end_to_end"]:
            b = {s: r[m["name"]] for s, r in base[w].items() if m["name"] in r}
            c = {s: r[m["name"]] for s, r in change[w].items()
                 if m["name"] in r}
            v, d = verdict(m, b, c)
            rows[v].append(m["name"])
            details.append("    %-14s %-10s %s" % (m["name"], v, d))
        any_worse |= bool(rows["worse"])
        print("%-10s %s" % (w, " | ".join(
            "%s: %s" % (v, ",".join(rows[v]) or "-") for v in VERDICTS)))
        if args.details:
            print("\n".join(details))
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()

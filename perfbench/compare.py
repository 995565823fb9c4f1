#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR [CHANGE_DIR]

A set is a directory of run outputs (the stdout of perfbench/run.py, one
file per run, as perfbench/sweep.py writes them). For each (workload,
metric) pair the tool prints each side's median and quartiles and, with two
sets, a verdict:

  improved   the change's median is better by more than the base's own
             spread (quartile distance over median), and at least 9 in 10
             runs of the change beat the base median;
  worse      the change's median is worse than the base's by more than the
             metric's bound;
  unresolved either side spreads wider than the bound, unless every run of
             the change is better (improved) or worse (worse) than every run
             of the base;
  unchanged  otherwise.

Metrics without a bound (the per-layer ones of traced runs) get medians
only. With one set, the spread of each metric is shown against its bound.
Exits 1 when any end-to-end metric is worse or a run was incorrect.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory):
    """{(workload, trace): [result, ...]} for every run file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        header, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "header" in obj:
                    header = obj["header"]
                elif "metrics" in obj:
                    result = obj
        if header is None or result is None:
            print("skipping %s: no header or result line" % path,
                  file=sys.stderr)
            continue
        key = (header["workload"], bool(header["trace"]))
        runs.setdefault(key, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(base, change, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    _, mb, _ = quartiles(base)
    _, mc, _ = quartiles(change)
    worse_share = sign * (mc - mb) / abs(mb) if mb else 0.0
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    all_worse = all(sign * (c - b) > 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound:
        if all_better:
            return "improved"
        if all_worse:
            return "worse"
        return "unresolved"
    if worse_share > bound:
        return "worse"
    beats = sum(1 for c in change if sign * (c - mb) < 0)
    if -worse_share > spread(base) and beats >= 0.9 * len(change):
        return "improved"
    return "unchanged"


def fmt(v):
    return "%.6g" % v


def main(argv):
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_runs(d) for d in argv]
    status = 0
    keys = sorted(set().union(*[s.keys() for s in sets]))
    for workload, traced in keys:
        groups = [s.get((workload, traced), []) for s in sets]
        print("== %s (%s) runs: %s" % (
            workload, "traced" if traced else "untraced",
            " vs ".join(str(len(g)) for g in groups)))
        for label, group in zip("AB", groups):
            bad = [r for r in group if not r["correct"] or r["failed"]]
            if bad:
                status = 1
                print("  set %s: %d run(s) incorrect or with failed "
                      "operations" % (label, len(bad)))
        names = sorted(set().union(*[r["metrics"].keys()
                                     for g in groups for r in g]))
        for name in names:
            cols = []
            values = []
            for group in groups:
                vals = [r["metrics"][name]["value"] for r in group
                        if name in r["metrics"]]
                values.append(vals)
                if vals:
                    q1, q2, q3 = quartiles(vals)
                    cols.append("%s [%s, %s]" % (fmt(q2), fmt(q1), fmt(q3)))
                else:
                    cols.append("-")
            line = "  %-44s %s" % (name, "  |  ".join(cols))
            spec = e2e.get(name) if not traced else None
            if spec is not None and all(values):
                lower = spec["better"] == "lower"
                if len(values) == 1:
                    s = spread(values[0])
                    line += "  spread %.3f of bound %.2f%s" % (
                        s, spec["bound"],
                        "" if s <= spec["bound"] else "  (WIDER)")
                else:
                    v = verdict(values[0], values[1], spec["bound"], lower)
                    if v == "worse":
                        status = 1
                    line += "  -> %s" % v
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

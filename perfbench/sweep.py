#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and keeps every run's output.

    python3 perfbench/sweep.py --out runs/base --seeds 1-10 --seconds 10 \
        [--workloads train,serve_pairs] [--trace 0]

Each run's stdout goes to <out>/<workload>-trace<t>-seed<n>.out; a summary
of every metric (median, quartiles, spread against BENCHMARK.json's bound)
is printed at the end. Feed two such directories to perfbench/compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            path = os.path.join(
                args.out, "%s-trace%d-seed%d.out" % (workload, args.trace, seed))
            with open(path, "w") as out:
                code = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", repr(args.seconds), "--trace",
                     str(args.trace)],
                    cwd=ROOT, stdout=out).returncode
            print("%s seed %d -> exit %d" % (workload, seed, code),
                  file=sys.stderr)
    compare.main([args.out])


if __name__ == "__main__":
    main()

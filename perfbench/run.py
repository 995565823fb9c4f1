#!/usr/bin/env python3
"""Builds the repository benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

Workloads: train, serve_pairs, serve_catalog_routed, stream_rollout (see
perfbench/README.md and BENCHMARK.json). The first run in a checkout
configures and compiles the product libraries under src/ plus the driver in
perfbench/src into .bench_build/ (or $CARGO_TARGET_DIR when set); later runs
rebuild only when a source file changed. The last line of stdout is the
result object: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without a result line when the benchmark cannot be built or
run, e.g. in a directory holding only BENCHMARK.json and perfbench/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve_pairs", "serve_catalog_routed", "stream_rollout")


def source_digest():
    """Content hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def source_id(digest):
    """git sha when the checkout is a repository, else the content hash."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "perfbench"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "tree-" + digest[:16]


def build(build_root, digest):
    """Configures and builds when the sources changed; returns the binary."""
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "rrre_perfbench")
    stamp = os.path.join(build_dir, "source.sha256")
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return binary
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ):
        # Build output goes to stderr: stdout carries only the run's lines.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return binary


def next_run_index(build_root):
    path = os.path.join(build_root, "run_counter")
    index = 0
    if os.path.exists(path):
        with open(path) as f:
            index = int(f.read().strip() or 0)
    with open(path, "w") as f:
        f.write(str(index + 1))
    return index


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "trainer.h")):
        print("perfbench: no product sources under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    digest = source_digest()
    binary = build(build_root, digest)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work_dir", os.path.join(build_root, "work"),
        "--source", source_id(digest),
        "--run_index", str(next_run_index(build_root)),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

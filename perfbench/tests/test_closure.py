#!/usr/bin/env python3
"""Closure checks of the benchmark's per-layer breakdown.

    python3 perfbench/tests/test_closure.py

Runs a workload untraced and traced on one seed and checks that the traced
run's per-layer figures add up to the untraced end-to-end figure they
claim to explain:

  * train: the replica training step (shard region + serial tail, built
    from the same public calls the trainer's epoch loop makes) against the
    untraced time per step (p50_us), within TRAIN_STEP_BOUND;
  * serve_pairs: protocol parse + format, batcher submit-to-done and the
    server hop (socket minus in-process p50) against the untraced p50_us,
    within SERVE_PATH_BOUND.

Each test takes a few tens of seconds; the benchmark builds on first use.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
ROOT = os.path.dirname(os.path.dirname(HERE))

SEED = 3
SECONDS = 6
TRAIN_STEP_BOUND = 0.25
SERVE_PATH_BOUND = 0.25


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], "run was not correct: %s" % out
    return {k: v["value"] for k, v in result["metrics"].items()}


class ClosureTest(unittest.TestCase):

    def assertCloses(self, parts, whole, bound, what):
        ratio = parts / whole
        print("%s: layers %.1f us vs end-to-end %.1f us (ratio %.3f)" %
              (what, parts, whole, ratio))
        self.assertLessEqual(abs(ratio - 1.0), bound, what)

    def test_train_replica_step_closes_on_step_time(self):
        untraced = run("train", 0)
        traced = run("train", 1)
        self.assertCloses(traced["core.trainer.shard_region_us_per_step"] +
                          traced["core.trainer.serial_tail_us_per_step"],
                          untraced["p50_us"], TRAIN_STEP_BOUND, "train step")

    def test_serve_pairs_layers_close_on_p50(self):
        untraced = run("serve_pairs", 0)
        traced = run("serve_pairs", 1)
        parts = ((traced["serve.protocol.parse_ns_per_line"] +
                  traced["serve.protocol.format_ns_per_line"]) * 1e-3 +
                 traced["serve.batcher.submit_to_done_us.p50"] +
                 traced["serve.server.hop_us.p50"])
        self.assertCloses(parts, untraced["p50_us"], SERVE_PATH_BOUND,
                          "serve_pairs request path")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

Through the binary's --corrupt switch, corrupts one served result byte
(serve_admit), submits one plan that admission rejects, has the daemon
drop finished results before the check fetches them (they read
Expired), and corrupts one spec_fine output. Asserts that each run reports the error: "correct" false, at
least one failed operation, and a nonzero exit code. A clean run of
each workload must pass.

Run from the repository root (builds the benchmark first):

    python3 perfbench/test_checker.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))


def run(workload, corrupt=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", "0"]
    if corrupt:
        command += ["--corrupt", corrupt]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


class CheckerSelfTest(unittest.TestCase):
    def assert_caught(self, workload, corrupt):
        code, result = run(workload, corrupt)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def assert_clean(self, workload):
        code, result = run(workload)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_corrupted_served_result_is_reported(self):
        self.assert_caught("serve_admit", "served")

    def test_lost_result_is_reported(self):
        self.assert_caught("serve_admit", "expired")

    def test_rejected_plan_is_reported(self):
        self.assert_caught("serve_admit", "rejected")

    def test_corrupted_spec_output_is_reported(self):
        self.assert_caught("spec_fine", "spec")

    def test_clean_runs_pass(self):
        self.assert_clean("serve_admit")
        self.assert_clean("spec_fine")


if __name__ == "__main__":
    unittest.main()

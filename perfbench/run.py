#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_admit|serve_heavy|spec_fine \
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (the STATS libraries from src/ plus
the benchmark binary) in a Release build under .bench_build/, then
runs the binary from the repository root. Build output goes to
standard error; the binary's standard output, whose last line is the
JSON result, passes through. The exit code is the binary's, or the
build's when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("serve_admit", "serve_heavy", "spec_fine")


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return done.returncode
    return 0


def commit():
    """The git commit when run from a git checkout, else 'unknown'."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt",
                        choices=("served", "rejected", "expired", "spec"),
                        help="checker self-test: corrupt one output")
    args = parser.parse_args()

    status = build()
    if status != 0:
        print("perfbench: build failed", file=sys.stderr)
        return status or 1

    command = [BINARY, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.corrupt:
        command += ["--corrupt", args.corrupt]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())

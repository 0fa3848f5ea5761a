#!/usr/bin/env python3
"""Builds and runs the session benchmark from the repository root.

    python3 sessionbench/run.py --workload cold_paged --seed 1 \\
        --seconds 30 --trace 0
    python3 sessionbench/run.py --self-test

The program is built from source into .bench_build/ (RelWithDebInfo, the
repository's default build type); the benchmark binary then runs the
workload and prints every metric by name with its unit, ending with one
JSON result line. Its exit code is passed through: 0 = every output check
passed, 1 = a check failed, 2 = bad arguments or set-up failure. Build
failures exit 3 without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
BUILD_TYPE = "RelWithDebInfo"
JOBS = "4"


def build(targets):
    """Configures and builds `targets`; False on any failure. Configuring
    every time is cheap once the tree exists and recovers from a failed
    earlier configure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
             ["cmake", "--build", BUILD_DIR, "--parallel", JOBS,
              "--target"] + targets]
    for step in steps:
        # Build chatter goes to stderr so stdout stays the result stream.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--self-test", action="store_true")
    args, extra = parser.parse_known_args()

    if args.self_test:
        if not build(["sessionbench_test"]):
            return 3
        return subprocess.run(["ctest", "--test-dir", BUILD_DIR,
                               "--output-on-failure", "-L",
                               "sessionbench"]).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not build(["session_bench", "optrules_workerd"]):
        print("run.py: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(BUILD_DIR, "session_bench")
    workerd = os.path.join(BUILD_DIR, "optrules", "optrules_workerd")
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--workerd", workerd,
               "--work-dir", os.path.join(BUILD_DIR, "work")] + extra
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

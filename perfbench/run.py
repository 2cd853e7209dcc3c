#!/usr/bin/env python3
"""Builds and runs the served-store benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and its checkers' tests (perfbench/CMakeLists.txt, against ./src)
into the directory named by CARGO_TARGET_DIR, or .bench_build; later runs
rebuild only what changed. Every run then runs the checkers' tests
(perfbench_checks) and, only if they pass, the workload. Build and test
output goes to standard error, so the last line of standard output is always
the benchmark's JSON result. A failed build or checker test exits non-zero
and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            return rc
    return 0


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    rc = build(build_dir)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc
    rc = subprocess.call([os.path.join(build_dir, "perfbench_checks")],
                         stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        print("perfbench: the checkers' own tests failed", file=sys.stderr)
        return rc
    return subprocess.call([os.path.join(build_dir, "perfbench")] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

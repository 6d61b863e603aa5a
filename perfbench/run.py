#!/usr/bin/env python3
"""Builds the testbed and the benchmark program from source, then runs one
workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload closure_query --seed 1 \
        --seconds 30 --trace 0

Workloads: closure_query, kb_churn, concurrent_mixed. The build goes to
$CARGO_TARGET_DIR when set, else .bench_build/, and is incremental: only the
first run in a checkout compiles. Scratch state (WAL directories) lives under
<build>/work and traced runs write their spans to <build>/traces. The last
line of standard output is the run's JSON result; everything the build prints
goes to standard error.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("closure_query", "kb_churn", "concurrent_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("testbed sources (src/CMakeLists.txt) not found; run from the "
             "root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "dkb_perfbench"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    binary = os.path.join(build_dir, "dkb_perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(root, ".bench_build"))
    binary = build(root, build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work"),
           "--trace-dir", os.path.join(build_dir, "traces")]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs bench_e2e, the end-to-end + per-layer benchmark.

    python3 bench_e2e/run.py --workload adhoc_sql --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library from src/ plus the benchmark into .bench_build/bench_e2e (CMake,
Release); later runs only rebuild what changed. Build output goes to stderr;
the last line of stdout is the result JSON of the run:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics with tracing off, --trace 1 the
per-layer metrics of a traced run. --out FILE appends the result, tagged with
workload, seed and trace, to a JSON-lines file that compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")

WORKLOADS = ("adhoc_sql", "served_sql")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("bench_e2e: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to bench_e2e/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="perturb one expected result (self-test)")
    parser.add_argument("--out", help="append the tagged result to this file")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_oracle:
        command.append("--corrupt-oracle")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("bench_e2e exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("bench_e2e printed no result")
    result = json.loads(lines[-1])
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": result}
        with open(args.out, "a") as out:
            out.write(json.dumps(record) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

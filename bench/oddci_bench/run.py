#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/oddci_bench/run.py --workload W --seed N --seconds T --trace 0|1

Builds oddci_bench from source into .bench_build/ (a Release build of the
repository's own CMake project, which oddci_bench.cmake extends with this
package), runs one workload through `oddci_bench run`, and prints as its
last line one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json lists (end_to_end with --trace 0, per_layer with
--trace 1). Exits nonzero,
without that line, when the build or the run cannot complete, and with
correct=false when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "oddci_bench")


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("oddci_bench: no simulator sources at " + ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append([
            "cmake", "-S", ROOT, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PROJECT_oddci_INCLUDE="
            + os.path.join(HERE, "oddci_bench.cmake"),
            "-DODDCI_BUILD_TESTS=OFF", "-DODDCI_BUILD_BENCH=OFF",
            "-DODDCI_BUILD_EXAMPLES=OFF"])
    steps.append(
        ["cmake", "--build", BUILD, "--parallel", jobs, "--target", "oddci_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("oddci_bench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    out = os.path.join(
        results_dir, "%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out]
    if args.trace:
        cmd += ["--trace", "--trace-dir", os.path.join(BUILD, "trace")]
    sys.stdout.flush()
    status = subprocess.run(cmd).returncode
    if not os.path.exists(out):
        sys.exit("oddci_bench: run failed with status %d" % status)
    with open(out) as f:
        results = json.load(f)

    measured = results["workloads"][args.workload]["metrics"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = measured[m["name"]]
        if (got["unit"], got["better"]) != (m["unit"], m["better"]):
            sys.exit("oddci_bench: %s is %s, %s is better; BENCHMARK.json "
                     "says %s, %s" % (m["name"], got["unit"], got["better"],
                                      m["unit"], m["better"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = results["correct"] and status == 0
    print(json.dumps({"correct": correct, "attempted": results["attempted"],
                      "failed": results["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

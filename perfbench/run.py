#!/usr/bin/env python3
"""Builds the perfbench harness against the pnoc library and runs one workload.

    python3 perfbench/run.py --workload <lowload|saturation|sweep|stream> \
        --seed <n> --seconds <s> --trace <0|1>

The library is built from the repository's own CMake files (Release) into
.bench_build/perfbench at the repository root; the first run configures and
builds, later runs only re-check the build.  Build output goes to stderr.
stdout carries the harness's digest line and, last, one JSON object with the
keys correct, attempted, failed and metrics.  Exits non-zero, printing no
result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "pnoc_perfbench")
WORKLOADS = ("lowload", "saturation", "sweep", "stream")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no pnoc source tree here ({needed} is missing)")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "pnoc_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(step)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"harness exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has the wrong keys")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()

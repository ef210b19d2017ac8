#!/usr/bin/env python3
"""Null experiment: two interleaved sets of runs of one build.

    python3 perfbench/null_experiment.py [--runs 10]
        [--workloads lowload,sweep] [--seconds N]

Both sets run the same code, so every difference between them is noise.
Run i of each set uses its own seed (set A: 1..runs, set B: 101..100+runs),
and the order of A and B alternates from one run to the next.  For each
workload and end-to-end metric it prints both medians, each set's spread
(the distance between the first and third quartile as a share of the
median, from statistics.quantiles(n=4)), the shift of B's median against
A's in the metric's worse direction, and the bound from BENCHMARK.json.
A row is flagged when either set's spread or the shift exceeds the bound;
the failed-operation shares of the sets must match exactly.  Exits 1 when
anything is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SET_SEED_BASE = {"A": 1, "B": 101}
SETS = list(SET_SEED_BASE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"null_experiment: {workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for a quartile spread")

    flagged = False
    for workload in args.workloads.split(","):
        results = {name: [] for name in SETS}
        for i in range(args.runs):
            order = SETS if i % 2 == 0 else list(reversed(SETS))
            for name in order:
                results[name].append(run_once(workload, SET_SEED_BASE[name] + i, args.seconds))
        print(f"== {workload}  ({args.runs} runs per set, {args.seconds} s each)")
        for name in SETS:
            rows = results[name]
            attempted = sum(r["attempted"] for r in rows)
            failed = sum(r["failed"] for r in rows)
            shares = sorted({r["failed"] / r["attempted"] for r in rows})
            correct = all(r["correct"] for r in rows)
            print(f"   set {name}: correct={correct} failed {failed}/{attempted}, "
                  f"per-run failed shares {shares}")
            flagged |= not correct or len(shares) != 1
        share = {n: {r["failed"] / r["attempted"] for r in results[n]} for n in SETS}
        if share["A"] != share["B"]:
            print("   FLAG: failed shares differ between the sets")
            flagged = True
        print(f"   {'metric':<18}{'median A':>14}{'spread A':>10}"
              f"{'median B':>14}{'spread B':>10}{'shift':>9}{'bound':>8}")
        for metric in bench["end_to_end"]:
            key = metric["name"]
            line = f"   {key:<18}"
            medians = {}
            for name in SETS:
                values = [r["metrics"][key]["value"] for r in results[name]]
                medians[name], spr = statistics.median(values), spread(values)
                line += f"{medians[name]:>14.6g}{spr:>10.2%}"
                if spr > metric["bound"]:
                    flagged = True
                    line += " !"
            a, b = medians["A"], medians["B"]
            shift = (b / a - 1.0) if metric["better"] == "lower" else (a / b - 1.0)
            line += f"{shift:>9.2%}"
            if shift > metric["bound"]:
                flagged = True
                line += " !"
            print(line + f"{metric['bound']:>8.2f}")
        sys.stdout.flush()
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()

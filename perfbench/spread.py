#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and reports,
for every end-to-end metric, the median and the interquartile range of
the runs as a share of the median (statistics.quantiles, n=4), next to
the metric's bound. It exits non-zero if a run fails or is incorrect, or
if any metric's spread exceeds its bound. Run it from the repository
root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads grid,serve]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    seeds = seeds_of(args.seeds)
    if len(seeds) < 2:
        ap.error("a spread needs at least two seeds")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    ok = True
    for wl in names:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: incorrect result {lines[-1][:200]}")
                ok = False
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        print(f"== {wl}")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            sp = (q[2] - q[0]) / med
            bound = m["bound"]
            flag = "ok" if sp < bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
            ok = ok and sp <= bound
            print(f"  {m['name']:<14} median {med:<14.6g} spread {sp:6.3f}  bound {bound}  {flag}")
            print("      runs: " + " ".join(f"{x:.4g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

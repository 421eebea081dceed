#!/usr/bin/env python3
"""Steadiness mode: runs each workload once per seed and prints, for
every end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median) next to the
metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 mqobench/steady.py                      # all workloads, seeds 1..10
    python3 mqobench/steady.py --workloads stream --seeds 1-5
    python3 mqobench/steady.py --seeds 101-110 --json out.json

A spread of at most a third of the bound is steady enough; `setup_s`
is reported but its spread is not held to the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", help="also write every run's result here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    everything = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            r = run_once(bench, workload, seed, args.seconds)
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
            results.append(r)
        everything[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(seeds)} runs, failed shares {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':<20} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  steady")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = name == "setup_s" or spread <= bounds[name] / 3
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"{name:<20} {units[name]:>6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bounds[name]:>6}  {'yes' if ok else 'NO'}")
        print()
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()

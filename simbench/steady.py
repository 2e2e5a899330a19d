#!/usr/bin/env python3
"""Steadiness report for the simulator benchmark.

Runs the benchmark named in BENCHMARK.json once per seed on each workload
and prints, for every metric, the median of the runs and their spread
(interquartile range over median, the quartiles as
statistics.quantiles(values, n=4) gives them) beside the metric's bound.
A spread at or above a third of the bound is marked "wide", one at or above
the bound "NOISY", so a too-noisy verdict names the metric behind it.

    python3 simbench/steady.py --runs 10 --first-seed 1 --save a.json
    python3 simbench/steady.py --runs 10 --first-seed 1 --against a.json

--against compares this set's medians with a saved set and marks every
metric whose median got worse by more than its bound. Run it from the
root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        print(f"  {workload} seed {seed}: correct={res['correct']} failed={res['failed']}"
              f"/{res['attempted']}\n{out.stderr}", file=sys.stderr)
    return res, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--save", help="write the raw values to this file")
    ap.add_argument("--against", help="compare medians with a saved file")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    seconds = a.seconds or bench["run_seconds"]
    before = {}
    if a.against:
        with open(a.against) as f:
            before = json.load(f)

    raw = {}
    for wl in names:
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            res, wall = run_once(bench["command"], wl, seed, seconds, a.trace)
            print(f"  {wl} seed {seed}: {res['attempted']} ops in {wall:.1f} s", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[wl] = values
        print(f"\n{wl}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print(f"  {'metric':36} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
        for name, vals in sorted(values.items()):
            med, sp = spread(vals)
            bound = specs.get(name, {}).get("bound")
            verdict = ""
            if bound is not None and sp == sp:
                if name == "setup_s":
                    verdict = "exempt"
                elif sp >= bound:
                    verdict = "NOISY"
                elif sp >= bound / 3:
                    verdict = "wide"
                else:
                    verdict = "ok"
            if before.get(wl, {}).get(name) and bound is not None:
                old = statistics.median(before[wl][name])
                worse = (med - old) / old
                if specs[name]["better"] == "higher":
                    worse = -worse
                verdict += f"  vs saved {worse:+.3f}" + (" REGRESSED" if worse > bound else "")
            b = "" if bound is None else f"{bound:.2f}"
            print(f"  {name:36} {med:12.6g} {sp:8.4f} {b:>6}  {verdict}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()

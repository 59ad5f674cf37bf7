#!/usr/bin/env python3
"""Steadiness report for the benchmark declared in BENCHMARK.json.

Runs the benchmark command once per (workload, seed), each in its own
process, sequentially, and prints for every end-to-end metric its median,
first and third quartile (as ``statistics.quantiles(values, n=4)`` gives
them), the spread (q3 - q1) / median, and the bound from BENCHMARK.json.
A spread above a third of the bound is flagged ``WIDE``; one above the
bound ``OVER`` (``setup_s`` is exempt: only its median is bounded).

With ``--save`` the raw values are written as JSON; with ``--compare`` the
medians are checked against an earlier saved set, flagging any metric
whose median got worse by more than its bound.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seconds N] [--workloads a,b]
                                [--first-seed 1] [--save out.json]
                                [--compare earlier.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "host: ?")
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed checks")
    return host, {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(metric, old, new):
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    raw = {}
    status = 0
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            host, got = run_once(bench["command"], workload, seed, seconds)
            print(f"{workload} seed {seed}: {host}", flush=True)
            for name in values:
                values[name].append(got[name])
        raw[workload] = values
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            mid, q1, q3, sp = spread(values[m["name"]])
            flag = ""
            if m["name"] != "setup_s" and sp > m["bound"]:
                flag, status = "OVER", 1
            elif m["name"] != "setup_s" and sp > m["bound"] / 3:
                flag = "WIDE"
            if earlier and workload in earlier:
                old = statistics.median(earlier[workload][m["name"]])
                shift = worse_by(m, old, mid)
                if shift > m["bound"]:
                    flag, status = f"{flag} SHIFT {shift:+.3f}".strip(), 1
            print(f"  {m['name']:34} {mid:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{sp:8.4f} {m['bound']:6.3f} {flag}")
        print(flush=True)

    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(status)


if __name__ == "__main__":
    main()

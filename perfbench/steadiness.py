#!/usr/bin/env python3
"""Steadiness check for the served-store benchmark.

Runs each workload repeatedly, in two separate sets of runs with different
seeds, and reports for every end-to-end metric the median and quartiles of
each set, the spread (quartile distance over median) and how far the second
set's median moved from the first's. It compares both with the bounds in
BENCHMARK.json, which is how those bounds were set.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--seconds S] [--seed-base N] [--traced K]

Run from the repository root. --traced K also makes K traced runs per
workload in each set, spread evenly among the untraced runs of that set, and
reports the tracing overhead two ways: the traced runs' median throughput
(of the slices that recorded spans) against the untraced runs' median, and
the median of the traced runs' own trace.overhead_pct (slices that record
spans against slices that do not, within one run). Results go to standard
output and to .bench_run/steadiness.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Figures too unsteady on a shared host to gate, kept for reference.
REFERENCE = {
    "latency_p50_us": r"p50=([0-9.]+)us",
    "latency_p99_us": r"p99=([0-9.]+)us",
    "recovery_s": r"recovery=([0-9.]+)s",
}


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-3000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, p.returncode))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    # Reference figures, printed on standard error only.
    result["reference"] = {}
    for name, pattern in REFERENCE.items():
        m = re.search(pattern, p.stderr)
        if m:
            result["reference"][name] = float(m.group(1))
    return result


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # runs[set][workload] -> list of results; workloads interleave within a set.
    runs = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.seed_base
    traced = {w: [] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            # K of the set's runs, evenly spaced, are followed by a traced run.
            with_traced = i * args.traced % args.runs < args.traced
            for w in workloads:
                r = run_once(bench, w, seed, seconds, 0)
                runs[s][w].append(dict(r, seed=seed))
                print("set %d run %d %-14s seed %d: %s failed=%d/%d wall=%.1fs" % (
                    s + 1, i + 1, w, seed, " ".join(
                        "%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items()),
                    r["failed"], r["attempted"], r["wall_s"]), flush=True)
                seed += 1
                if with_traced:
                    r = run_once(bench, w, seed, seconds, 1)
                    traced[w].append(dict(r, seed=seed))
                    print("set %d traced %-14s seed %d: served_kops=%.4g overhead_pct=%.3g "
                          "failed=%d/%d wall=%.1fs" % (
                              s + 1, w, seed, r["metrics"]["trace.served_kops"]["value"],
                              r["metrics"]["trace.overhead_pct"]["value"], r["failed"],
                              r["attempted"], r["wall_s"]), flush=True)
                    seed += 1

    summary = {"seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    ok = True
    print()
    print("%-14s %-24s %5s %12s %12s %12s %8s %8s %8s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread", "moved", "bound"))
    for w in workloads:
        wsum = {}
        fail_shares = [sorted({r["failed"] / r["attempted"] for r in runs[s][w]})
                       for s in range(args.sets)]
        for name, spec in bounds.items():
            sets = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in runs[s][w]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                sets.append({"values": vals, "q1": q1, "median": med, "q3": q3, "spread": spread})
            base = sets[0]["median"]
            for s, st in enumerate(sets):
                moved = 0.0
                if s > 0 and base:
                    moved = (st["median"] - base) / base
                    if spec["better"] == "higher":
                        moved = -moved  # positive = worse
                st["moved_worse"] = moved
                flag = ""
                if st["spread"] > spec["bound"]:
                    flag, ok = " SPREAD>BOUND", False
                elif st["spread"] > spec["bound"] / 3:
                    flag = " spread>bound/3"
                if moved > spec["bound"]:
                    flag, ok = flag + " MOVED>BOUND", False
                print("%-14s %-24s %5d %12.5g %12.5g %12.5g %7.1f%% %7.1f%% %7.1f%%%s" % (
                    w, name, s + 1, st["q1"], st["median"], st["q3"], 100 * st["spread"],
                    100 * moved, 100 * spec["bound"], flag))
            wsum[name] = sets
        for name in REFERENCE:
            for s in range(args.sets):
                vals = [r["reference"][name] for r in runs[s][w] if name in r["reference"]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                wsum.setdefault(name + "_reference", []).append(
                    {"values": vals, "q1": q1, "median": med, "q3": q3})
                print("%-14s %-24s %5d %12.5g %12.5g %12.5g %7.1f%%  (reference)" % (
                    w, name, s + 1, q1, med, q3, 100 * (q3 - q1) / med))
        wsum["failed_shares"] = fail_shares
        if len({tuple(x) for x in fail_shares}) > 1:
            ok = False
            print("%-14s failed share differs between sets: %s" % (w, fail_shares))
        if traced[w]:
            thr = statistics.median(r["metrics"]["trace.served_kops"]["value"] for r in traced[w])
            untraced = statistics.median(r["metrics"]["throughput_kops"]["value"]
                                         for s in range(args.sets) for r in runs[s][w])
            in_run = statistics.median(r["metrics"]["trace.overhead_pct"]["value"] for r in traced[w])
            wsum["tracing"] = {"traced_kops": thr, "untraced_kops": untraced,
                               "throughput_loss_pct": 100 * (untraced - thr) / untraced,
                               "in_run_overhead_pct": in_run, "traced_runs": len(traced[w])}
            print("%-14s tracing: traced runs %.1f kops/s vs untraced %.1f kops/s (%.1f%% lower); "
                  "within traced runs %.2f%% lower" % (
                      w, thr, untraced, 100 * (untraced - thr) / untraced, in_run))
        wsum["wall_s_median"] = statistics.median(r["wall_s"] for s in range(args.sets)
                                                  for r in runs[s][w])
        summary["workloads"][w] = wsum
    os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_run", "steadiness.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("\nsteady within bounds" if ok else "\nNOT steady within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

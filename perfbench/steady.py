#!/usr/bin/env python3
"""Runs one workload of the serving benchmark N times and reports spread.

Usage (from the repository root):
  python3 perfbench/steady.py --workload serve_lsh --runs 10 \
      [--seconds 20] [--trace 0] [--seed0 1]

Run i uses seed seed0 + i; with --same-seed every run uses seed0, which
separates host noise from variation between inputs. For each run it
prints the host fingerprint the benchmark reports (nproc, kernel
dispatch level, compiler, build type, and the share of CPU time the
virtual machine's host stole during the run) and the attempted/failed
counts. Then, per metric, it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. Metrics a run prints as `metric` lines but leaves
out of its result are listed too, marked "(printed)". The bounds in
BENCHMARK.json are set from these spreads.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          cwd=os.path.dirname(HERE))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit("run with seed %d failed (exit %d)"
                         % (seed, done.returncode))
    host = " ".join(l[5:] for l in lines if l.startswith("host ")) or "?"
    result = json.loads(lines[-1])
    # Metrics printed as `metric` lines but not in the result.
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric" \
                and parts[1] not in result["metrics"]:
            printed[parts[1] + " (printed)"] = {"value": float(parts[2]),
                                                "unit": parts[3]}
    return host, result, printed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed0 + (0 if args.same_seed else i)
        host, result, printed = run_once(args.workload, seed, args.seconds,
                                         args.trace)
        share = result["failed"] / result["attempted"]
        print("run %2d seed %d host %s attempted=%d failed=%d share=%.6f"
              % (i, seed, host, result["attempted"], result["failed"], share),
              flush=True)
        for name, m in list(result["metrics"].items()) + list(printed.items()):
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print("%-32s %s" % ("per run", " ".join("%10d" % i
                                            for i in range(args.runs))))
    for name, vals in values.items():
        print("%-32s %s" % (name, " ".join("%10.4g" % v for v in vals)))

    print("%-32s %-6s %14s %14s %14s %8s" % ("metric", "unit", "median",
                                            "q1", "q3", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        print("%-32s %-6s %14.6g %14.6g %14.6g %8.4f"
              % (name, units[name], med, q1, q3, spread))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny input size.

    python3 perfbench/selftest.py

For every workload it runs run.py --tiny and checks that:
  - every metric BENCHMARK.json names is emitted, untraced and traced,
    with a finite value, and the correctness gate passes;
  - two runs with the same seed give identical modeled_cycles_mean and
    identical inputs (the record's input_digest);
  - a different seed gives different inputs.
Exits non-zero on the first failed check. Takes about a minute.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and len(lines) >= 2,
          f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(ok, what):
    if not ok:
        print(f"FAIL {what}", flush=True)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (1, 0), (2, 0), (1, 1)):
            record, result = run(w, seed, trace)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{w} seed {seed} trace {trace}: correctness gate")
            check(set(result["metrics"]) == names[trace],
                  f"{w} trace {trace}: metric set")
            check(all(math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  f"{w} trace {trace}: finite values")
            runs.setdefault((seed, trace), []).append((record, result))
        (r1, m1), (r2, m2) = runs[(1, 0)]
        cycles = "modeled_cycles_mean"
        check(m1["metrics"][cycles]["value"] == m2["metrics"][cycles]["value"],
              f"{w}: {cycles} repeats under one seed")
        check(r1["input_digest"] == r2["input_digest"],
              f"{w}: inputs repeat under one seed")
        check(r1["input_digest"] != runs[(2, 0)][0][0]["input_digest"],
              f"{w}: another seed gives other inputs")
        print(f"ok   {w}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

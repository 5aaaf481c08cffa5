#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the FlowGNN library and the
perfbench binary from source into .bench_build/ (CMake, RelWithDebInfo,
the repository's default build type), runs one workload, and prints the
run record and then, as the last line of stdout, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones and writes a Chrome trace under .bench_build/work/.
Each run's record (host, threads, seed, commit, sample counts) is kept
in .bench_build/records/; once both a traced and an untraced record of
the same workload and seed exist, the tracing overhead (traced minus
untraced end-to-end values) is added to them.

Exit status: 0 when every output was correct; non-zero otherwise, and
with no result line when the run could not be made (no sources, a
failed build, a crash, or a metric set that differs from
BENCHMARK.json).
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RECORD_DIR = os.path.join(BUILD_ROOT, "records")
WORKLOADS = ("reddit-ghost", "hep-stream", "pool-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "engine.h")):
        raise RuntimeError(f"no FlowGNN sources under {ROOT}/src")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(min(4, cpus()))],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    try:
        # Never look for a repository above the checkout.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def record_path(workload, seed, trace):
    return os.path.join(RECORD_DIR, f"{workload}-seed{seed}-trace{trace}.json")


def add_tracing_overhead(workload, seed):
    """Traced minus untraced end-to-end values, once both runs exist."""
    paths = [record_path(workload, seed, t) for t in (0, 1)]
    if not all(os.path.exists(p) for p in paths):
        return
    records = []
    for p in paths:
        with open(p) as f:
            records.append(json.load(f))
    untraced = records[0]["metrics"]
    traced = records[1]["record"].get("end_to_end", {})
    overhead = {name: traced[name]["value"] - untraced[name]["value"]
                for name in untraced if name in traced}
    for p, rec in zip(paths, records):
        rec["tracing_overhead"] = overhead
        with open(p, "w") as f:
            json.dump(rec, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test size (see selftest.py)")
    args = ap.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or len(lines) < 2:
        log(f"perfbench exited with status {proc.returncode}")
        return 2
    record = json.loads(lines[-2])
    result = json.loads(lines[-1])

    want = expected_metrics(bool(args.trace))
    got = set(result["metrics"])
    if got != want:
        log(f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(want - got)}, extra {sorted(got - want)}")
        return 4
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float))
           or not math.isfinite(v["value"])]
    if bad:
        log(f"non-finite metrics: {bad}")
        return 4

    record["record"]["commit"] = commit()
    os.makedirs(RECORD_DIR, exist_ok=True)
    with open(record_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump({**record, **result}, f, indent=1)
    add_tracing_overhead(args.workload, args.seed)

    print(json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

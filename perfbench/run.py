#!/usr/bin/env python3
# Copyright 2026 the ustdb authors.
"""One-command runner of the ustdb service benchmark.

Builds the perfbench package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, runs one workload, and prints the binary's
human-readable report followed by one JSON result line:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics named in
BENCHMARK.json, with --trace 1 its per_layer metrics. The binary checks
every answer and engagement guard first; if any fails, this script exits
non-zero without a result line. The full metric set of every run, with its
provenance (git sha, ISA, nproc, seed), is kept in .bench_out/.

    python3 perfbench/run.py --workload alerts_cold --seed 1 --seconds 10 \
        --trace 0
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                       stderr=sys.stderr, timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build step failed: {e}")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
             BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    record = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"the run reported no metric {m['name']}")
        value = got["value"]
        if not math.isfinite(value) or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} = {value} {got['unit']} is invalid")
        if not args.trace and value <= 0:
            fail(f"end-to-end metric {m['name']} is not positive")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    OUT.mkdir(exist_ok=True)
    artifact = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": True, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload (stdlib only).

Usage, from the repository root:

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and builds bench/e2e (and the library from src/)
into .bench_build/e2e; later calls only re-check the build. Build output
goes to stderr. Standard output carries bench_e2e's full report line, then,
as the last line, the result object BENCHMARK.json's contract asks for:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric (--trace 0) or every per_layer metric
(--trace 1) named in BENCHMARK.json. A traced run writes its chrome trace to
.bench_build/e2e/traces/<workload>.json.

Exit status: bench_e2e's (1 when an output check failed), or 2 when the
build or the run could not complete, in which case no result is printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 170


def run_build_step(args):
    """Runs one build command with its output on stderr; False on failure."""
    try:
        return subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False).returncode == 0
    except OSError as err:
        print(f"run.py: cannot run {args[0]}: {err}", file=sys.stderr)
        return False


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                               "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                           "bench_e2e", "-j", "4"])


def contract_line(report, names):
    """The contract's result object: `names` picked from the full report."""
    metrics = {}
    correct = all(check["pass"] for check in report["checks"].values())
    for name in names:
        metric = report["metrics"].get(name)
        if metric is None or metric["value"] is None:
            print(f"run.py: metric {name} missing or invalid", file=sys.stderr)
            correct = False
            continue
        metrics[name] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": correct, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        print(f"run.py: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = [metric["name"] for metric in listed]
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, args.workload + ".json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        print(f"run.py: bench_e2e exited with {run.returncode}",
              file=sys.stderr)
        return 2
    report = json.loads(lines[-1])
    print(lines[-1])
    print(json.dumps(contract_line(report, names)))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

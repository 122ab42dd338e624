#!/usr/bin/env python3
"""Smoke test: every workload for one second, untraced and traced.

Usage: smoke_test.py <bench_e2e binary> <output dir>

Each run must exit 0 with a report line that parses, passes all its checks
and names every metric BENCHMARK.json lists for its mode (per-layer values
must be numbers; an end-to-end percentile may be null in a run this short).
compare.py must then accept the untraced runs as both sets.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    binary, out_dir = sys.argv[1], sys.argv[2]
    traces = os.path.join(out_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            run = subprocess.run(
                [binary, "--workload", workload, "--seed", "1", "--seconds",
                 "1", "--trace", trace, "--trace-out",
                 os.path.join(traces, f"{workload}.json")],
                stdout=subprocess.PIPE, text=True, check=False, timeout=300)
            label = f"{workload} trace={trace}"
            if run.returncode != 0:
                failures.append(f"{label}: exit {run.returncode}")
                continue
            report = json.loads(run.stdout.strip().splitlines()[-1])
            failed = [n for n, c in report["checks"].items() if not c["pass"]]
            if failed:
                failures.append(f"{label}: checks failed: {failed}")
            listed = spec["per_layer" if trace == "1" else "end_to_end"]
            for metric in listed:
                got = report["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{label}: {metric['name']} missing or "
                                    f"in the wrong unit")
                elif trace == "1" and got["value"] is None:
                    failures.append(f"{label}: {metric['name']} is null")
            if trace == "0":
                with open(os.path.join(out_dir, f"{workload}.json"), "w") as f:
                    f.write(run.stdout)
            print(f"{label}: ok")
    if not failures:
        compare = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), out_dir,
             out_dir], stdout=subprocess.PIPE, text=True, check=False)
        print(compare.stdout)
        if compare.returncode != 0:
            failures.append(f"compare.py exited {compare.returncode}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

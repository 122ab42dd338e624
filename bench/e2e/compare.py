#!/usr/bin/env python3
"""Two-set comparison of bench_e2e runs against BENCHMARK.json's bounds.

Usage:

    python3 bench/e2e/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are each a directory of run outputs, or a single file; an
output is whatever run.py or bench_e2e printed (the full report line is
found by its "workload" key). Traced runs and runs marked invalid (the load
generator fell behind) are skipped and counted.

For every workload and every end_to_end metric it prints each set's median
and quartiles (statistics.quantiles, n=4) and one verdict:

    ok          NEW's median is not worse than BASE's by more than the bound
    regressed   it is worse by more than the bound
    unresolved  a set's spread (quartile distance over median) is wider than
                the bound, so the medians cannot tell; unless every NEW run
                beats every BASE run, which is reported as ok

Exit status 1 when any metric regressed, 0 otherwise, 2 on bad input.
"""

import argparse
import json
import os
import statistics
import sys


def load_reports(path):
    """Full-report objects from a file or every file in a directory."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if os.path.isfile(os.path.join(path, f))]
             if os.path.isdir(path) else [path])
    reports = []
    for name in files:
        with open(name) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue
                if "workload" in obj:
                    reports.append(obj)
    return reports


def collect(reports):
    """{workload: {metric: [values]}} over untraced, valid runs."""
    by_workload = {}
    skipped = 0
    for report in reports:
        if report.get("trace") or not report.get("valid", False):
            skipped += 1
            continue
        metrics = by_workload.setdefault(report["workload"], {})
        for name, metric in report["metrics"].items():
            if metric.get("value") is not None:
                metrics.setdefault(name, []).append(metric["value"])
    return by_workload, skipped


def summary(values):
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(values):
    return "/".join(f"{x:.4g}" for x in summary(values))


def spread(values):
    q1, median, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(metric, base, new):
    bound = metric["bound"]
    lower_is_better = metric["better"] == "lower"
    _, base_median, _ = summary(base)
    _, new_median, _ = summary(new)
    if max(spread(base), spread(new)) > bound:
        every_run_better = (max(new) < min(base) if lower_is_better
                            else min(new) > max(base))
        return "ok" if every_run_better else "unresolved"
    if base_median == 0:
        return "ok" if new_median == 0 else "unresolved"
    change = (new_median - base_median) / abs(base_median)
    worse_by = change if lower_is_better else -change
    return "regressed" if worse_by > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..",
        "BENCHMARK.json"))
    args = parser.parse_args()
    try:
        with open(args.benchmark) as f:
            end_to_end = json.load(f)["end_to_end"]
        base, base_skipped = collect(load_reports(args.base))
        new, new_skipped = collect(load_reports(args.new))
    except (OSError, ValueError, KeyError) as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2
    if not base or not new:
        print("compare.py: a set holds no untraced, valid run", file=sys.stderr)
        return 2

    print(f"skipped (traced or invalid): base {base_skipped}, "
          f"new {new_skipped}")
    print(f"{'workload':16} {'metric':22} {'n':>5}  "
          f"{'base q1/med/q3':>30}  {'new q1/med/q3':>30}  "
          f"{'bound':>5}  verdict")
    regressed = False
    for workload in sorted(set(base) | set(new)):
        for metric in end_to_end:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                print(f"{workload:16} {name:22} {'':>5}  missing in "
                      f"{'base' if not a else 'new'}")
                continue
            result = verdict(metric, a, b)
            regressed |= result == "regressed"
            print(f"{workload:16} {name:22} {len(a):>2}/{len(b):<2}  "
                  f"{describe(a):>30}  {describe(b):>30}  "
                  f"{metric['bound']:>5}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

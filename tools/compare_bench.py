#!/usr/bin/env python3
"""Diff two bench JSON files and fail past a regression threshold.

Understands both bench output schemas in this repo:

  * bench_parallel_kernels: {"host": {...}, "results": [{"kernel",
    "threads", "ops_per_sec"[, "ops_per_sec_iqr", "reps"]}, ...]} -- every
    (kernel, threads) row becomes a higher-is-better metric on its
    ops_per_sec, the median of a measured row; the host fingerprint and
    the spread fields are context, not metrics.
  * bench_profile_report (conformer.bench_profile.v1): the "throughput"
    entries are higher-is-better; "step_coverage" is higher-is-better with
    an absolute floor rather than a relative threshold (coverage is a
    correctness-of-instrumentation property, not a speed).

With --gates it instead checks the declarative acceptance bars of
bench/gates.json (ratios, windows and row presence) against the bench
JSONs in one results directory.

Usage:
  compare_bench.py baseline.json current.json [--threshold 0.10]
      [--coverage-floor 0.95] [--warn-only]
  compare_bench.py --gates bench/gates.json results_dir [--warn-only]

Exit status: 0 when no metric regressed beyond the threshold (improvements
never fail) and no gate failed, 1 on regression or a failed gate, 2 on
malformed input (including a gate whose file or rows are missing).
--warn-only exits 0 on regressions and on failed "warn" gates so PR builds
can surface them without gating (CI passes it for pull_request events and
omits it on main); "hard" gates fail either way.
"""

import argparse
import json
import os
import sys


def extract_metrics(doc):
    """Returns {metric_name: (value, higher_is_better)}."""
    metrics = {}
    if isinstance(doc.get("results"), list):
        for row in doc["results"]:
            key = "{}/t{}".format(row["kernel"], row["threads"])
            metrics[key + "/ops_per_sec"] = (float(row["ops_per_sec"]), True)
    for key, value in (doc.get("throughput") or {}).items():
        # All throughput entries are rates; *_seconds would be lower-is-better
        # but the report only exports *_per_sec.
        metrics["throughput/" + key] = (float(value), True)
    if "step_coverage" in doc:
        metrics["step_coverage"] = (float(doc["step_coverage"]), True)
    return metrics


def gate_value(gate, doc):
    """The quantity `gate` bounds, read from one bench JSON document."""
    threads = gate.get("threads")
    rows = {}
    for row in doc["results"]:
        if threads is None or row["threads"] == threads:
            rows[row["kernel"]] = float(row["ops_per_sec"])
    if "metric" in gate:
        return rows[gate["metric"]]
    if "ratio" in gate:
        numerator, denominator = gate["ratio"]
        return rows[numerator] / rows[denominator]
    return float(sum(1 for kernel in rows if kernel.startswith(gate["prefix"])))


def check_gates(gates_path, results_dir, warn_only):
    """Evaluates every gate in `gates_path`; returns the exit status."""
    try:
        with open(gates_path) as f:
            gates = json.load(f)["gates"]
    except (OSError, ValueError, KeyError) as err:
        print("compare_bench: cannot read gates: {}".format(err),
              file=sys.stderr)
        return 2
    docs = {}
    failed = errors = 0
    for gate in gates:
        name = gate.get("name", "?")
        try:
            path = os.path.join(results_dir, gate["file"])
            if path not in docs:
                with open(path) as f:
                    docs[path] = json.load(f)
            value = gate_value(gate, docs[path])
        except (OSError, ValueError, KeyError, TypeError,
                ZeroDivisionError) as err:
            print("ERROR {}: cannot measure ({!r})".format(name, err))
            errors += 1
            continue
        low, high = gate.get("min"), gate.get("max")
        if (low is None or value >= low) and (high is None or value <= high):
            print("PASS  {}: {:.4g}".format(name, value))
            continue
        hard = gate.get("severity", "hard") == "hard"
        message = "{}: {:.4g} outside [{}, {}]".format(
            name, value, "-inf" if low is None else low,
            "inf" if high is None else high)
        if hard or not warn_only:
            print("FAIL  " + message)
            failed += 1
        else:
            print("WARN  " + message)
        if not hard:
            print("::warning::" + message)
    if errors:
        return 2
    if failed:
        print("\ncompare_bench: {} gate(s) failed".format(failed),
              file=sys.stderr)
        return 1
    print("\ncompare_bench: all {} gates hold".format(len(gates)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="baseline.json current.json, or with --gates "
                        "the directory holding the bench JSONs")
    parser.add_argument(
        "--gates",
        help="check the acceptance bars in this gates JSON instead of "
        "diffing two runs",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max tolerated fractional regression per metric (default 0.10)",
    )
    parser.add_argument(
        "--coverage-floor",
        type=float,
        default=0.95,
        help="absolute minimum for step_coverage (default 0.95)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args()
    if len(args.paths) != (1 if args.gates else 2):
        parser.error("expected baseline.json current.json, or --gates "
                     "GATES.json DIR")
    if args.gates:
        return check_gates(args.gates, args.paths[0], args.warn_only)

    try:
        with open(args.paths[0]) as f:
            baseline = extract_metrics(json.load(f))
        with open(args.paths[1]) as f:
            current = extract_metrics(json.load(f))
    except (OSError, ValueError, KeyError, TypeError) as err:
        print("compare_bench: cannot read inputs: {}".format(err),
              file=sys.stderr)
        return 2
    if not baseline:
        print("compare_bench: no comparable metrics in baseline",
              file=sys.stderr)
        return 2

    failures = []
    print("{:<44} {:>14} {:>14} {:>8}".format("metric", "baseline", "current",
                                              "delta"))
    for name in sorted(baseline):
        base_value, higher_better = baseline[name]
        if name not in current:
            failures.append("{}: missing from current run".format(name))
            continue
        cur_value, _ = current[name]
        if base_value != 0:
            delta = (cur_value - base_value) / abs(base_value)
        else:
            delta = 0.0
        regression = -delta if higher_better else delta
        marker = ""
        if name == "step_coverage":
            if cur_value < args.coverage_floor:
                marker = "  << below floor {}".format(args.coverage_floor)
                failures.append("{}: {:.4f} below floor {:.2f}".format(
                    name, cur_value, args.coverage_floor))
        elif regression > args.threshold:
            marker = "  << regressed past {:.0%}".format(args.threshold)
            failures.append("{}: {:.4f} -> {:.4f} ({:+.1%})".format(
                name, base_value, cur_value, delta))
        print("{:<44} {:>14.4f} {:>14.4f} {:>+7.1%}{}".format(
            name, base_value, cur_value, delta, marker))

    # Metrics present only in the current run get their own NEW rows in the
    # summary table (full name and value, not a squashed one-liner) so a PR
    # adding bench coverage shows exactly what it added. They are never gated:
    # there is no baseline value to regress from until the baseline file is
    # regenerated.
    for name in sorted(set(current) - set(baseline)):
        print("{:<44} {:>14} {:>14.4f}     NEW".format(
            name, "-", current[name][0]))

    if failures:
        print("\ncompare_bench: {} regression(s):".format(len(failures)),
              file=sys.stderr)
        for failure in failures:
            print("  " + failure, file=sys.stderr)
        if args.warn_only:
            print("compare_bench: --warn-only set, exiting 0",
                  file=sys.stderr)
            return 0
        return 1
    print("\ncompare_bench: OK ({} metrics within {:.0%})".format(
        len(baseline), args.threshold))
    return 0


if __name__ == "__main__":
    sys.exit(main())

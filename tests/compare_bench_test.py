#!/usr/bin/env python3
"""Exit-code contract tests for tools/compare_bench.py.

Run as: compare_bench_test.py <path-to-compare_bench.py>

Drives the comparator with generated bench JSONs covering both schemas:
identical runs must pass, improvements must pass, the spread fields of the
micro-bench schema (host fingerprint, ops_per_sec_iqr, reps) must not
change what is diffed, regressions beyond the
threshold must fail (and pass again under --warn-only), a coverage drop
below the floor must fail, and malformed input must exit 2. The --gates
mode is driven with a generated gates file: a passing rule exits 0, a
failing hard rule exits 1 even under --warn-only, a failing warn rule exits
0 under --warn-only (1 without), and a gate naming a missing row exits 2.
"""

import json
import os
import subprocess
import sys
import tempfile


def write_json(tmpdir, name, doc):
    path = os.path.join(tmpdir, name)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run(compare, *argv):
    proc = subprocess.run(
        [sys.executable, compare] + list(argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    return proc.returncode, proc.stdout.decode()


def main():
    if len(sys.argv) != 2:
        print("usage: compare_bench_test.py <compare_bench.py>")
        return 1
    compare = sys.argv[1]
    failures = []

    def check(label, got, want, output):
        if got != want:
            failures.append(
                "{}: exit {} want {}\n{}".format(label, got, want, output))

    with tempfile.TemporaryDirectory() as tmpdir:
        kernels = {
            "hardware_concurrency": 4,
            "results": [
                {"kernel": "gemm_512", "threads": 1, "ops_per_sec": 100.0},
                {"kernel": "gemm_512", "threads": 4, "ops_per_sec": 300.0},
            ],
        }
        base = write_json(tmpdir, "base.json", kernels)

        # Identical runs pass.
        code, out = run(compare, base, base)
        check("identical", code, 0, out)

        # A 50% throughput drop on one kernel fails at the 10% default.
        degraded = json.loads(json.dumps(kernels))
        degraded["results"][0]["ops_per_sec"] = 50.0
        deg = write_json(tmpdir, "degraded.json", degraded)
        code, out = run(compare, base, deg)
        check("degraded", code, 1, out)

        # ... but --warn-only always exits 0.
        code, out = run(compare, base, deg, "--warn-only")
        check("degraded --warn-only", code, 0, out)

        # ... and a loose threshold tolerates it.
        code, out = run(compare, base, deg, "--threshold", "0.6")
        check("degraded loose threshold", code, 0, out)

        # Improvements never fail.
        improved = json.loads(json.dumps(kernels))
        improved["results"][0]["ops_per_sec"] = 250.0
        imp = write_json(tmpdir, "improved.json", improved)
        code, out = run(compare, base, imp)
        check("improved", code, 0, out)

        # Rows only in the current run are reported as NEW in the summary
        # (one full row per metric, never gated) and do not affect the exit
        # code.
        grown = json.loads(json.dumps(kernels))
        grown["results"].append(
            {"kernel": "gemm_avx2", "threads": 1, "ops_per_sec": 900.0})
        grw = write_json(tmpdir, "grown.json", grown)
        code, out = run(compare, base, grw)
        check("new metric exit code", code, 0, out)
        if "gemm_avx2/t1/ops_per_sec" not in out or "NEW" not in out:
            failures.append(
                "new metric row missing NEW marker:\n{}".format(out))

        # The spread schema (a host fingerprint, per-row IQR and repetition
        # count) diffs against the bare one on ops_per_sec, the median, and
        # adds no metrics of its own.
        spread = {
            "host": {"hardware_concurrency": 4, "simd": "avx2",
                     "compiler": "12.2.0"},
            "results": [dict(row, ops_per_sec_iqr=3.0, reps=5)
                        for row in kernels["results"]],
        }
        spr = write_json(tmpdir, "spread.json", spread)
        code, out = run(compare, base, spr)
        check("spread schema", code, 0, out)
        if "NEW" in out or "iqr" in out:
            failures.append(
                "spread fields leaked into the diff:\n{}".format(out))
        slow = json.loads(json.dumps(spread))
        slow["results"][0]["ops_per_sec"] = 50.0
        code, out = run(compare, base, write_json(tmpdir, "slow.json", slow))
        check("spread schema regression", code, 1, out)

        # A metric disappearing from the current run fails.
        shrunk = json.loads(json.dumps(kernels))
        shrunk["results"] = shrunk["results"][:1]
        shr = write_json(tmpdir, "shrunk.json", shrunk)
        code, out = run(compare, base, shr)
        check("missing metric", code, 1, out)

        # bench_profile_report schema: coverage below the floor fails even
        # when throughput is unchanged.
        profile = {
            "schema": "conformer.bench_profile.v1",
            "step_coverage": 0.99,
            "throughput": {"train_steps_per_sec": 8.0},
        }
        pbase = write_json(tmpdir, "profile_base.json", profile)
        code, out = run(compare, pbase, pbase)
        check("profile identical", code, 0, out)

        uncovered = dict(profile, step_coverage=0.80)
        punc = write_json(tmpdir, "profile_uncovered.json", uncovered)
        code, out = run(compare, pbase, punc)
        check("coverage below floor", code, 1, out)

        # Malformed input exits 2.
        bad = os.path.join(tmpdir, "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        code, out = run(compare, base, bad)
        check("malformed", code, 2, out)

        # --gates: declarative bars over the JSONs in one results directory
        # (written in the spread schema; gates read the median).
        results = os.path.join(tmpdir, "results")
        os.mkdir(results)
        write_json(results, "bench_serving.json", {
            "host": {"hardware_concurrency": 1, "simd": "scalar",
                     "compiler": "12.2.0"},
            "results": [
                {"kernel": "serve_direct_b8", "threads": 1,
                 "ops_per_sec": 120.0, "ops_per_sec_iqr": 9.0, "reps": 5},
                {"kernel": "serve_seq_b1", "threads": 1, "ops_per_sec": 100.0,
                 "ops_per_sec_iqr": 4.0, "reps": 5},
            ]})

        def gates_file(name, **gate):
            rule = dict(name=name, file="bench_serving.json",
                        ratio=["serve_direct_b8", "serve_seq_b1"], **gate)
            return write_json(tmpdir, name + ".json", {"gates": [rule]})

        passing = gates_file("passing", min=0.9, severity="hard")
        code, out = run(compare, "--gates", passing, results)
        check("gate passes", code, 0, out)

        hard = gates_file("hard", min=1.5, severity="hard")
        code, out = run(compare, "--gates", hard, results, "--warn-only")
        check("hard gate fails under --warn-only", code, 1, out)

        warn = gates_file("warn", min=1.5, severity="warn")
        code, out = run(compare, "--gates", warn, results, "--warn-only")
        check("warn gate under --warn-only", code, 0, out)
        if "::warning::" not in out:
            failures.append("warn gate printed no warning:\n{}".format(out))
        code, out = run(compare, "--gates", warn, results)
        check("warn gate without --warn-only", code, 1, out)

        missing = write_json(tmpdir, "missing.json", {"gates": [dict(
            name="missing", file="bench_serving.json", metric="nope",
            min=1)]})
        code, out = run(compare, "--gates", missing, results, "--warn-only")
        check("gate on a missing row", code, 2, out)

    if failures:
        print("compare_bench_test: {} failure(s)".format(len(failures)))
        for failure in failures:
            print(failure)
        return 1
    print("compare_bench_test: all exit-code contracts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

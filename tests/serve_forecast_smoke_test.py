#!/usr/bin/env python3
"""Smoke test for the serve_forecast CLI.

Run as: serve_forecast_smoke_test.py <serve_forecast-binary>

Trains a linear model into a fresh checkpoint directory, serves 16 requests
through the one-tenant fleet while hot-reloading every 4 submissions, and
checks the run exits 0 with "failed 0" in its summary and, from its
--metrics-out JSON, that every batch was served by a static plan. A second
run of single-series batches over the same checkpoint checks that plans are
replayed across hot reloads (serve.plan_hits > 0). Then checks that a
160-row CSV, whose val split holds exactly one window under the default
32/16/16 geometry, serves, and that bad data or window geometry (a 150-row
CSV, whose val split is one row short of a window; --input-len 5000;
--label-len 40 > input_len) exits 1 with an InvalidArgument message instead
of dying on a signal.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile


def run(args):
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    return proc.returncode, proc.stdout.decode()


def write_csv(path, rows):
    with open(path, "w") as f:
        f.write("date,load,temperature\n")
        for i in range(rows):
            day, hour = divmod(i, 24)
            f.write("2020-01-%02d %02d:00:00,%d.5,%d.25\n"
                    % (1 + day, hour, i % 7, i % 5))


def plan_counters(path):
    """serve.plan_{builds,hits,fallbacks} from a --metrics-out file."""
    with open(path) as f:
        counters = json.load(f)["counters"]
    return {name: counters.get("serve.plan_" + name, 0)
            for name in ("builds", "hits", "fallbacks")}


def check_rejected(binary, args, label):
    """Bad input must exit 1 with InvalidArgument; False (and why) if not."""
    code, output = run([binary, "--model", "linear", "--requests", "1"] + args)
    if code != 1 or "InvalidArgument" not in output:
        print(output)
        print("FAIL: %s: exit code %d (want 1 with InvalidArgument)"
              % (label, code))
        return False
    print("ok: %s rejected: %s" % (label, output.strip().splitlines()[-1]))
    return True


def main():
    if len(sys.argv) != 2:
        print("usage: serve_forecast_smoke_test.py <serve_forecast>")
        return 1
    binary = sys.argv[1]
    workdir = tempfile.mkdtemp(prefix="conformer_serve_forecast_")
    try:
        checkpoint = os.path.join(workdir, "ckpt")
        os.mkdir(checkpoint)
        metrics = os.path.join(workdir, "metrics.json")
        code, output = run(
            [binary, "--model", "linear", "--requests", "16",
             "--train-if-missing", "--checkpoint", checkpoint,
             "--reload-every-n", "4", "--metrics-out", metrics])
        print(output)
        if code != 0:
            print("FAIL: exit code %d" % code)
            return 1
        if "failed 0\n" not in output:
            print("FAIL: summary does not report 'failed 0'")
            return 1
        plans = plan_counters(metrics)
        if plans["builds"] == 0 or plans["fallbacks"] != 0:
            print("FAIL: not served from the static plan: %s" % plans)
            return 1

        # One series per batch: 16 batches of one geometry, and each of the
        # 4 reloads clears at most one plan, so at most 5 are traced and at
        # least 11 batches replay a plan.
        code, output = run(
            [binary, "--model", "linear", "--requests", "16",
             "--clients", "1", "--max-batch", "1", "--checkpoint", checkpoint,
             "--reload-every-n", "4", "--metrics-out", metrics])
        plans = plan_counters(metrics)
        if (code != 0 or "failed 0\n" not in output
                or "hot reloads: 4 ok" not in output
                or plans["hits"] == 0 or plans["fallbacks"] != 0):
            print(output)
            print("FAIL: plan replay across hot reloads: exit code %d, %s"
                  % (code, plans))
            return 1
        print("ok: plan replay across hot reloads: %s" % plans)

        edge_csv = os.path.join(workdir, "edge.csv")
        write_csv(edge_csv, 160)
        code, output = run([binary, "--model", "linear", "--requests", "1",
                            "--csv", edge_csv])
        if code != 0 or "failed 0\n" not in output:
            print(output)
            print("FAIL: 160-row CSV: exit code %d (want 0 with 'failed 0')"
                  % code)
            return 1
        print("ok: 160-row CSV served")

        short_csv = os.path.join(workdir, "short.csv")
        write_csv(short_csv, 150)
        ok = check_rejected(binary, ["--csv", short_csv], "150-row CSV")
        ok &= check_rejected(binary, ["--input-len", "5000"], "--input-len 5000")
        ok &= check_rejected(binary, ["--label-len", "40"], "--label-len 40")
        if not ok:
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

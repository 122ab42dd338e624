#!/usr/bin/env python3
"""Smoke test for the serve_forecast CLI.

Run as: serve_forecast_smoke_test.py <serve_forecast-binary>

Trains a linear model into a fresh checkpoint directory, serves 16 requests
through the one-tenant fleet while hot-reloading every 4 submissions, and
checks the run exits 0 with "failed 0" in its summary.
"""

import shutil
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) != 2:
        print("usage: serve_forecast_smoke_test.py <serve_forecast>")
        return 1
    checkpoint = tempfile.mkdtemp(prefix="conformer_serve_forecast_")
    try:
        proc = subprocess.run(
            [sys.argv[1], "--model", "linear", "--requests", "16",
             "--train-if-missing", "--checkpoint", checkpoint,
             "--reload-every-n", "4"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    finally:
        shutil.rmtree(checkpoint, ignore_errors=True)
    output = proc.stdout.decode()
    print(output)
    if proc.returncode != 0:
        print("FAIL: exit code %d" % proc.returncode)
        return 1
    if "failed 0\n" not in output:
        print("FAIL: summary does not report 'failed 0'")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

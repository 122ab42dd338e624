#!/usr/bin/env python3
"""Inspect conformer training checkpoints without loading them into C++.

Usage:
  inspect_checkpoint.py <checkpoint-file-or-directory> [--json]

Given a directory, reads its MANIFEST and inspects every retained
checkpoint (newest last); given a file, inspects just that file. For each
checkpoint the section table is walked, every CRC32 is recomputed, and the
model / optimizer / trainer payloads are decoded far enough to print the
tensor table and the resume cursor (see docs/ROBUSTNESS.md for the format).

Exit status: 0 when every inspected checkpoint validates, 1 when any
checkpoint is corrupt or structurally invalid, 2 on usage or I/O errors.
Stdlib-only on purpose so it runs anywhere CI does.
"""

import json
import os
import struct
import sys
import zlib

CHECKPOINT_MAGIC = 0xC04FCC01
CHECKPOINT_VERSION = 1
MODULE_MAGIC = 0xC04F04E8
MANIFEST_NAME = "MANIFEST"
MANIFEST_HEADER = "conformer-checkpoint-manifest v1"
MAX_SECTIONS = 64


class CorruptCheckpoint(Exception):
    """Raised when a checkpoint fails structural or CRC validation."""


class Cursor:
    """Little-endian reader over a bytes payload with bounds checking."""

    def __init__(self, data, what):
        self.data = data
        self.offset = 0
        self.what = what

    def take(self, n, what):
        if self.offset + n > len(self.data):
            raise CorruptCheckpoint(
                "%s: truncated while reading %s (need %d bytes at offset %d, "
                "have %d)" % (self.what, what, n, self.offset, len(self.data))
            )
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def i64(self, what):
        return struct.unpack("<q", self.take(8, what))[0]

    def f64(self, what):
        return struct.unpack("<d", self.take(8, what))[0]

    def string(self, what, max_len=1 << 20):
        n = self.u64(what + " length")
        if n > max_len:
            raise CorruptCheckpoint(
                "%s: implausible %s length %d" % (self.what, what, n)
            )
        return self.take(n, what).decode("utf-8", errors="replace")

    def skip_floats(self, what, max_elems=1 << 32):
        n = self.u64(what + " count")
        if n > max_elems:
            raise CorruptCheckpoint(
                "%s: implausible %s count %d" % (self.what, what, n)
            )
        self.take(n * 4, what)
        return n


def parse_sections(data, path):
    """Returns [(name, payload)] with every CRC verified."""
    cur = Cursor(data, path)
    magic = cur.u32("magic")
    if magic != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(
            "%s: bad magic 0x%08X (expected 0x%08X)"
            % (path, magic, CHECKPOINT_MAGIC)
        )
    version = cur.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CorruptCheckpoint("%s: unsupported version %d" % (path, version))
    count = cur.u32("section count")
    if count == 0 or count > MAX_SECTIONS:
        raise CorruptCheckpoint(
            "%s: implausible section count %d" % (path, count)
        )
    sections = []
    for _ in range(count):
        name = cur.string("section name", max_len=256)
        payload_len = cur.u64("section '%s' length" % name)
        stored_crc = cur.u32("section '%s' crc" % name)
        payload = cur.take(payload_len, "section '%s' payload" % name)
        computed = zlib.crc32(payload) & 0xFFFFFFFF
        if computed != stored_crc:
            raise CorruptCheckpoint(
                "%s: CRC mismatch in section '%s' (stored %u, computed %u)"
                % (path, name, stored_crc, computed)
            )
        sections.append((name, payload))
    return sections


def parse_model(payload, path):
    cur = Cursor(payload, path + ": model")
    if cur.u32("module magic") != MODULE_MAGIC:
        raise CorruptCheckpoint(path + ": model section has a bad magic")
    count = cur.u64("parameter count")
    if count > 1 << 20:
        raise CorruptCheckpoint(
            "%s: implausible parameter count %d" % (path, count)
        )
    tensors = []
    for _ in range(count):
        name = cur.string("parameter name", max_len=4096)
        rank = cur.u64("rank of '%s'" % name)
        if rank > 16:
            raise CorruptCheckpoint(
                "%s: corrupt rank %d for '%s'" % (path, rank, name)
            )
        shape = [cur.i64("dim of '%s'" % name) for _ in range(rank)]
        numel = 1
        for d in shape:
            if d < 0:
                raise CorruptCheckpoint(
                    "%s: negative dim %d for '%s'" % (path, d, name)
                )
            numel *= d
        cur.take(numel * 4, "data of '%s'" % name)
        tensors.append({"name": name, "shape": shape, "numel": numel})
    return tensors


def parse_optimizer(payload, path):
    cur = Cursor(payload, path + ": optimizer")
    kind = cur.string("optimizer type", max_len=64)
    info = {"type": kind}
    if kind == "adam":
        info["lr"] = cur.f64("adam lr")
        info["beta1"] = cur.f64("adam beta1")
        info["beta2"] = cur.f64("adam beta2")
        info["eps"] = cur.f64("adam eps")
        info["weight_decay"] = cur.f64("adam weight decay")
        info["step_count"] = cur.i64("adam step count")
        info["buffers"] = cur.u64("m buffer count")
    return info


def parse_trainer(payload, path):
    cur = Cursor(payload, path + ": trainer")
    info = {
        "epoch": cur.i64("epoch"),
        "step_in_epoch": cur.i64("step_in_epoch"),
        "global_step": cur.i64("global_step"),
        "loss_sum": cur.f64("loss_sum"),
        "finite_batches": cur.i64("finite_batches"),
        "best_val": cur.f64("best_val"),
        "bad_epochs": cur.i64("bad_epochs"),
        "epochs_run": cur.i64("epochs_run"),
        "best_val_mse": cur.f64("best_val_mse"),
        "early_stopped": cur.i64("early_stopped") != 0,
        "nonfinite_steps": cur.i64("nonfinite_steps"),
    }
    for cursor_field in ("epoch", "step_in_epoch", "global_step"):
        if info[cursor_field] < 0:
            raise CorruptCheckpoint(
                "%s: negative trainer cursor %s" % (path, cursor_field)
            )
    n = cur.u64("train_losses count")
    [cur.f64("train_losses entry") for _ in range(min(n, 1 << 24))]
    info["train_loss_epochs"] = n
    n = cur.u64("val_mses count")
    [cur.f64("val_mses entry") for _ in range(min(n, 1 << 24))]
    info["val_mse_epochs"] = n
    n = cur.u64("best_snapshot count")
    for _ in range(min(n, 1 << 20)):
        cur.skip_floats("best_snapshot buffer")
    info["best_snapshot_buffers"] = n
    return info


def inspect_file(path):
    """Returns a report dict; raises CorruptCheckpoint on invalid input."""
    with open(path, "rb") as f:
        data = f.read()
    sections = parse_sections(data, path)
    report = {
        "path": path,
        "bytes": len(data),
        "sections": [
            {"name": name, "bytes": len(payload)} for name, payload in sections
        ],
    }
    by_name = dict(sections)
    for required in ("model", "optimizer", "rng", "trainer"):
        if required not in by_name:
            raise CorruptCheckpoint(
                "%s: missing section '%s'" % (path, required)
            )
    report["model"] = parse_model(by_name["model"], path)
    report["optimizer"] = parse_optimizer(by_name["optimizer"], path)
    report["trainer"] = parse_trainer(by_name["trainer"], path)
    report["rng_state_chars"] = len(by_name["rng"])
    return report


def manifest_entries(directory):
    manifest = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise CorruptCheckpoint(directory + ": no MANIFEST")
    with open(manifest) as f:
        lines = [line.strip() for line in f if line.strip()]
    if not lines or lines[0] != MANIFEST_HEADER:
        raise CorruptCheckpoint(directory + ": MANIFEST header is invalid")
    return [os.path.join(directory, name) for name in lines[1:]]


def print_report(report):
    print("%s (%d bytes)" % (report["path"], report["bytes"]))
    print(
        "  sections: "
        + ", ".join(
            "%s[%d]" % (s["name"], s["bytes"]) for s in report["sections"]
        )
        + "  (all CRCs ok)"
    )
    trainer = report["trainer"]
    print(
        "  cursor: epoch %d step %d (global step %d), %d epochs evaluated"
        % (
            trainer["epoch"],
            trainer["step_in_epoch"],
            trainer["global_step"],
            trainer["epochs_run"],
        )
    )
    print(
        "  early stopping: best_val=%.6g bad_epochs=%d early_stopped=%s "
        "nonfinite_steps=%d"
        % (
            trainer["best_val"],
            trainer["bad_epochs"],
            trainer["early_stopped"],
            trainer["nonfinite_steps"],
        )
    )
    opt = report["optimizer"]
    detail = " ".join(
        "%s=%.6g" % (k, v)
        for k, v in opt.items()
        if k not in ("type", "buffers", "step_count")
    )
    extras = ""
    if "step_count" in opt:
        extras = " step_count=%d" % opt["step_count"]
    print("  optimizer: %s %s%s" % (opt["type"], detail, extras))
    total = sum(t["numel"] for t in report["model"])
    print(
        "  model: %d tensors, %d parameters" % (len(report["model"]), total)
    )
    for tensor in report["model"]:
        print(
            "    %-40s %-16s %8d"
            % (
                tensor["name"],
                "x".join(str(d) for d in tensor["shape"]) or "scalar",
                tensor["numel"],
            )
        )


def main(argv):
    args = [a for a in argv[1:] if a != "--json"]
    as_json = "--json" in argv[1:]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    target = args[0]
    if os.path.isdir(target):
        try:
            paths = manifest_entries(target)
        except CorruptCheckpoint as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
        if not paths:
            print("error: %s: MANIFEST lists no checkpoints" % target,
                  file=sys.stderr)
            return 1
    elif os.path.exists(target):
        paths = [target]
    else:
        print("error: no such file or directory: %s" % target,
              file=sys.stderr)
        return 2

    reports = []
    failed = False
    for path in paths:
        try:
            reports.append(inspect_file(path))
        except CorruptCheckpoint as e:
            failed = True
            print("error: %s" % e, file=sys.stderr)
        except OSError as e:
            failed = True
            print("error: %s: %s" % (path, e), file=sys.stderr)
    if as_json:
        print(json.dumps({"checkpoints": reports, "ok": not failed}, indent=2))
    else:
        for report in reports:
            print_report(report)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

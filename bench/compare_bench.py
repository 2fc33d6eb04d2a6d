#!/usr/bin/env python3
"""Compare two machine-readable bench JSON files (bench/bench_json.h schema).

Usage:
  compare_bench.py CANDIDATE.json                      # pretty-print one file
  compare_bench.py BASELINE.json CANDIDATE.json        # compare, ratio table
  compare_bench.py BASELINE.json CANDIDATE.json --max-regression 1.10
  compare_bench.py BASELINE.json CANDIDATE.json --gate-speedup

Entries are matched by name. In compare mode the exit code is non-zero
when any matched entry got slower than baseline by more than
--max-regression (wall-time ratio candidate/baseline), or when matched
entries disagree on their result checksum at equal shape — bit-identity
is part of the contract, not just speed.

--gate-speedup compares MACHINE-NORMALIZED speedups instead of raw wall
times: each entry's time is divided by its scalar reference in the SAME
file (`blocked/gaussian` vs `scalar/gaussian`, `sparse_packed/…` vs
`sparse_scalar/…`), so the checked-in baseline from one machine gates CI
runs on another. Only the `packed*` popcount kernels are GATED — their
speedup is compute-bound and holds across problem sizes (~7.5x at both
the 100k x 10k reference and the 20k x 2k CI smoke). The dense
entries are printed for information but never fail this gate:
they are memory-geometry-bound, and their speedup over scalar legit-
imately swings with the working-set size (blocked/gaussian measures
1.4x at 8 GB and 0.9x at 320 MB on the same machine). The out-of-core
`stream_*` entries (bench --stream: the checkpointed panel loop fed
from a DASHPACK file) are a third family: I/O-BOUND. Their wall time
is dominated by the page cache, the filesystem, and whatever else the
runner is doing to the disk, so they are info rows under BOTH gates —
never a wall-time regression, never a speedup regression. Their
checksums ARE still enforced: streamed results must stay bit-identical
to the in-memory kernels whatever the disk does. A gated kernel
fails when its candidate speedup falls below baseline_speedup /
max-regression. Checksums are still compared whenever shapes match.

ISA-specific entries (`avx2/…`, `avx512/…`, `packed_avx512/…`) exist
only when the producing machine supports that ISA; the file's top-level
`isas` list records what it could run. An entry missing from the
candidate because the runner lacks the ISA is SKIPPED with a note, not
failed — a portable-only runner must stay green.
"""

import argparse
import json
import sys


def load(path):
    """Returns ({name: entry}, isas or None)."""
    with open(path) as f:
        doc = json.load(f)
    return {e["name"]: e for e in doc.get("entries", [])}, doc.get("isas")


def required_isa(name):
    """The ISA an entry needs on the running machine, or None."""
    variant = name.split("/", 1)[0]
    if "avx512" in variant:
        return "avx512"
    if "avx2" in variant:
        return "avx2"
    return None


def absence_reason(name, isas):
    """Why `name` may legitimately be missing from a file, or None."""
    isa = required_isa(name)
    if isa is None:
        return None
    if isas is None:
        # Pre-`isas` files (older bench runs) can't say what the machine
        # supported; be explicit that this is a skip, not a silent pass.
        return ("requires %s, but the file has no `isas` field "
                "(older bench run) — skipped, not failed" % isa)
    if isa in isas:
        return None
    return "requires %s, absent on that machine" % isa


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.3f s" % (ns / 1e9)
    if ns >= 1e6:
        return "%.2f ms" % (ns / 1e6)
    return "%.1f us" % (ns / 1e3)


def show(entries):
    print("%-28s %10s %10s  %s" % ("name", "time", "GB/s", "checksum"))
    for name in sorted(entries):
        e = entries[name]
        print("%-28s %10s %10.2f  %s"
              % (name, fmt_ns(e["ns"]), e["gb_per_s"], e["checksum"]))


def same_shape(a, b):
    return all(a.get(key) == b.get(key) for key in ("n", "m", "k", "p"))


def scalar_reference(name):
    """Name of the scalar entry an optimized kernel is normalized by.

    `blocked/gaussian` -> `scalar/gaussian`; `sparse_blocked/genotype`
    -> `sparse_scalar/genotype`. Returns None for the references
    themselves (nothing to gate) and for unrecognized layouts.
    """
    if "/" not in name:
        return None
    variant, dataset = name.split("/", 1)
    if variant in ("scalar", "sparse_scalar"):
        return None
    prefix = "sparse_scalar" if variant.startswith("sparse_") else "scalar"
    return "%s/%s" % (prefix, dataset)


def shape_stable(name):
    """True for entries whose speedup-over-scalar is gateable across
    problem sizes: the `packed*` popcount kernels, which are
    compute-bound per nonzero. Dense/repack kernels are memory-bound
    and their normalized speedup shifts with working-set size."""
    return name.split("/", 1)[0].startswith("packed")


def io_bound(name):
    """True for the out-of-core `stream_*` entries (stream_file,
    stream_resume, ...). Their wall time measures the
    disk and the page cache, not the kernels, so neither the raw
    wall-time gate nor --gate-speedup may fail on them — info rows
    only. Checksums are still enforced elsewhere."""
    return name.split("/", 1)[0].startswith("stream")


def gate_speedups(base, cand, names, max_regression, cand_isas):
    """Machine-normalized regression gate; returns a list of failures."""
    failures = []
    print("%-28s %10s %10s  %s"
          % ("name", "base-spdup", "cand-spdup", "verdict"))
    gated = 0
    for name in sorted(set(base) - set(cand)):
        reason = absence_reason(name, cand_isas)
        if reason is not None:
            print("%-28s (skipped: %s)" % (name, reason))
    for name in names:
        ref = scalar_reference(name)
        if ref is None:
            continue
        if ref not in base or ref not in cand:
            print("%-28s (no %s reference; skipped)" % (name, ref))
            continue
        base_speedup = base[ref]["ns"] / base[name]["ns"]
        cand_speedup = cand[ref]["ns"] / cand[name]["ns"]
        if io_bound(name):
            print("%-28s %9.2fx %9.2fx  info (I/O-bound; not gated)"
                  % (name, base_speedup, cand_speedup))
            continue
        if not shape_stable(name):
            print("%-28s %9.2fx %9.2fx  info (memory-bound; not gated)"
                  % (name, base_speedup, cand_speedup))
            continue
        floor = base_speedup / max_regression
        ok = cand_speedup >= floor
        gated += 1
        print("%-28s %9.2fx %9.2fx  %s"
              % (name, base_speedup, cand_speedup,
                 "ok" if ok else "REGRESSION (floor %.2fx)" % floor))
        if not ok:
            failures.append(
                "%s: speedup over %s fell to %.2fx (baseline %.2fx, "
                "floor %.2fx)" % (name, ref, cand_speedup, base_speedup,
                                  floor))
    if gated == 0:
        failures.append("gate matched no optimized-kernel entries")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--max-regression", type=float, default=1.10,
                        help="fail when candidate/baseline wall time exceeds "
                             "this ratio (default 1.10); under "
                             "--gate-speedup, the allowed shrink factor of "
                             "the normalized speedup instead")
    parser.add_argument("--gate-speedup", action="store_true",
                        help="gate on machine-normalized speedups vs the "
                             "in-file scalar reference instead of raw wall "
                             "times (for cross-machine baselines)")
    args = parser.parse_args()

    if args.candidate is None:
        show(load(args.baseline)[0])
        return 0

    base, _ = load(args.baseline)
    cand, cand_isas = load(args.candidate)
    names = sorted(set(base) & set(cand))
    if not names:
        print("no common entries between %s and %s"
              % (args.baseline, args.candidate), file=sys.stderr)
        return 2

    failures = []
    print("%-28s %10s %10s %8s  %s"
          % ("name", "baseline", "candidate", "ratio", "checksum"))
    for name in names:
        b, c = base[name], cand[name]
        ratio = c["ns"] / b["ns"] if b["ns"] > 0 else float("inf")
        if same_shape(b, c):
            check = "ok" if b["checksum"] == c["checksum"] else "MISMATCH"
            if check == "MISMATCH":
                failures.append("%s: checksum drift (%s -> %s)"
                                % (name, b["checksum"], c["checksum"]))
        else:
            check = "shape-differs"
        flag = ""
        if not args.gate_speedup and ratio > args.max_regression:
            if io_bound(name):
                flag = "  (slower, but I/O-bound; info only)"
            else:
                flag = "  <-- regression"
                failures.append("%s: %.2fx slower than baseline"
                                % (name, ratio))
        print("%-28s %10s %10s %7.2fx  %s%s"
              % (name, fmt_ns(b["ns"]), fmt_ns(c["ns"]), ratio, check, flag))

    if args.gate_speedup:
        print()
        failures += gate_speedups(base, cand, names, args.max_regression,
                                  cand_isas)

    for name in sorted(set(base) ^ set(cand)):
        which = "baseline" if name in base else "candidate"
        reason = absence_reason(name, cand_isas) if which == "baseline" \
            else None
        note = "; %s" % reason if reason else ""
        print("%-28s (only in %s%s)" % (name, which, note))

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("\nOK: no regressions beyond %.2fx, checksums stable"
          % args.max_regression)
    return 0


if __name__ == "__main__":
    sys.exit(main())

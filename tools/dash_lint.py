#!/usr/bin/env python3
"""dash_lint: project-specific correctness lints that clang-tidy can't express.

Rules (each has a stable ID used in messages and suppressions):

  DL001 float-reassociation guard
      The bit-identity contract (DESIGN.md) requires that the kernel files
      produce bit-identical sums regardless of threading or blocking. Any
      pragma or attribute that licenses the compiler to reassociate or
      contract floating-point math in those files breaks the contract
      silently. Forbidden in KERNEL_FILES: `#pragma omp simd reduction`,
      fast-math/optimize pragmas, `#pragma STDC FP_CONTRACT ON`,
      `clang fp reassociate(on)`, and `__attribute__((optimize(...)))`.

  DL002 unchecked Status
      Function names returning Status/Result<T> are scraped from the
      headers under src/. A call to one of them as a bare statement —
      no assignment, no `return`, not inside DASH_RETURN_IF_ERROR /
      DASH_ASSIGN_OR_RETURN / DASH_CHECK, no `(void)` cast, no
      immediate `.ok()` / `.value()` / `.status()` — swallows the error.
      ([[nodiscard]] on Status catches most of these at compile time;
      this lint also covers virtual call sites and keeps the rule
      toolchain-independent.)

  DL003 raw memcpy outside the serialization boundary
      Wire bytes must flow through net/serialization (ByteWriter/
      ByteReader) or transport/frame. A raw memcpy into or out of a
      buffer anywhere else bypasses the bounds- and endianness-checked
      path. memcpy is allowed only in MEMCPY_ALLOWLIST files.

  DL004 include hygiene
      Every header under src/ carries an include guard named after its
      path (src/net/serialization.h -> DASH_NET_SERIALIZATION_H_), and
      no file includes via a relative "../" path.

  DL006 SIMD intrinsics or vector types outside src/core/kernels/
      Per-ISA code is confined to the kernel translation units under
      src/core/kernels/, which the build compiles with matching
      per-file -m flags and -ffp-contract=off, and which the runtime
      dispatch table (stats_kernels.h) gates behind a cpuid probe. An
      <immintrin.h> include, an _mm* intrinsic call, an __m128/256/512
      vector type, or a GCC/Clang vector_size / ext_vector_type type
      anywhere else either crashes on CPUs without the ISA (no dispatch
      gate), silently compiles without the target flag, or lets the
      default -ffp-contract fuse a multiply-add. ISA-specific
      translation units in src/core/kernels/ must also carry the
      matching compile-time guard (#ifndef __AVX2__/#error,
      #ifndef __AVX512F__/#error) so a build-system regression that
      drops the per-file flag fails loudly instead of miscompiling. The
      shared SIMD kernel source (stats_kernels_simd.inc) may only be
      included inside an anonymous namespace: its template instances
      must keep internal linkage, or the linker could merge the AVX-512
      unit's instance into the AVX2 unit's callers.

  DL005 unauditable randomness in the MPC layer
      Masks and shares are only secure if their randomness comes from
      the audited, deterministically-seeded RNG path (util/random.h,
      ChaCha20Rng) — the leakage tests and the secrecy argument both
      assume it. In src/mpc/ files: `rand()`/`srand()` (libc PRNG),
      `std::random_device` (unseedable, unauditable entropy), and
      unseeded `std::mt19937` are forbidden.

  DL007 concurrency discipline (DESIGN.md §14)
      Clang's thread-safety analysis and the lock-rank checker only see
      locks that go through the annotated wrappers in util/mutex.h, so:
      (a) bare std sync primitives (std::mutex, std::lock_guard,
          std::unique_lock, std::scoped_lock, std::condition_variable,
          ...) are forbidden outside src/util/ — use dash::Mutex /
          MutexLock / CondVar;
      (b) every dash::Mutex member/variable must be constructed with a
          LockRank (util/lock_rank.h keeps the global total order);
      (c) in src/ classes that hold a ranked Mutex, later data members
          with the trailing-underscore naming (the guarded-looking
          ones) must carry DASH_GUARDED_BY(...) — declare genuinely
          unguarded members BEFORE the mutex, or annotate why not
          (atomics, threads, and the sync primitives themselves are
          exempt);
      (d) DASH_NO_THREAD_SAFETY_ANALYSIS requires a non-empty reason
          string — an opt-out that cannot say why is a bug magnet.

Engines (DL002 only; every other rule is text-based in both modes):

  clang   call sites come from the AST: any statement-level CALL_EXPR
          whose *canonical* return type is Status/Result<T> is a
          dropped result — aliases (`using StatusAlias = Status`) and
          wrapper functions the header scraper never saw stop slipping
          past the regex. Files outside compile_commands.json fall
          back to the regex engine.
  regex   header-scraped name list + bare-statement pattern (default
          when the clang bindings are unavailable).

Usage:
  tools/dash_lint.py                 # lint the tree, exit 0/1
  tools/dash_lint.py FILE...         # lint specific files
  tools/dash_lint.py --self-test     # run against tools/lint_fixtures
  tools/dash_lint.py --mode clang    # force the libclang DL002 engine

A line can opt out with a trailing `// dash-lint: disable=DLxxx` comment;
each use must justify itself to a reviewer.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from dash_clang_common import (  # noqa: E402
    REPO_ROOT, args_for_path, in_main_file, load_compile_db, parse_tu,
    pick_engine)

# Files under the bit-identity contract: reordering their accumulation
# changes revealed bits across party/thread configurations.
KERNEL_FILES = {
    "src/core/kernels/isa_dispatch.cc",
    "src/core/kernels/stats_kernels.h",
    "src/core/kernels/stats_kernels_avx2.cc",
    "src/core/kernels/stats_kernels_avx512.cc",
    "src/core/kernels/stats_kernels_portable.cc",
    "src/core/kernels/stats_kernels_simd.inc",
    "src/core/suff_stats.cc",
    "src/core/suff_stats.h",
    "src/linalg/packed_matrix.cc",
    "src/linalg/packed_matrix.h",
    "src/linalg/vector_ops.cc",
    "src/linalg/vector_ops.h",
}

# The only directory that may contain SIMD intrinsics (DL006); its
# ISA-specific TUs must carry the matching #ifndef/#error guard.
INTRINSICS_DIR = "src/core/kernels/"
INTRINSIC_RE = re.compile(
    r"immintrin\.h|x86intrin\.h|[exs]mmintrin\.h|avx\w*intrin\.h"
    r"|\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
    r"|\b(?:__)?vector_size(?:__)?\s*\(|\bext_vector_type\s*\(")
# The shared SIMD kernel source and the namespace tracking that checks
# each include of it sits inside an anonymous namespace (DL006).
SIMD_INCLUDE_RE = re.compile(
    r'#\s*include\s*"core/kernels/stats_kernels_simd\.inc"')
NAMESPACE_OPEN_RE = re.compile(r"^\s*(?:inline\s+)?namespace\s*([\w:]*)\s*\{")
NAMESPACE_CLOSE_RE = re.compile(r"^\s*\}\s*//\s*namespace\b")
# file-name pattern -> macro whose absence must stop compilation.
ISA_GUARDS = [
    (re.compile(r"_avx2\.(cc|cpp)$"), "__AVX2__"),
    (re.compile(r"_avx512\.(cc|cpp)$"), "__AVX512F__"),
]

# The only files that may call memcpy. Everything that touches wire
# bytes goes through ByteWriter/ByteReader or the frame codec; the
# suff_stats entries are kernel scratch-block copies of doubles (plus a
# documented bit-cast), not wire data. The streaming trio are the
# on-DISK codec boundary (DESIGN.md §15): panel_stream.cc and
# scan_checkpoint.cc pack/unpack the DASHPACK / DASHCKPT byte images
# the same way frame.cc packs the wire image, and streaming_stats.cc
# spills/reseeds accumulator doubles into checkpoint buffers — local
# scratch like suff_stats, never wire data.
MEMCPY_ALLOWLIST = {
    "src/net/serialization.cc",
    "src/transport/frame.cc",
    "src/core/suff_stats.cc",
    "src/data/panel_stream.cc",
    "src/core/scan_checkpoint.cc",
    "src/core/streaming_stats.cc",
}

SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools/lint_fixtures")

DISABLE_RE = re.compile(r"//\s*dash-lint:\s*disable=(DL\d{3})")

REASSOC_PATTERNS = [
    (re.compile(r"#\s*pragma\s+omp\s+(?:\w+\s+)*simd\b.*\breduction\b"),
     "OpenMP simd reduction reorders the accumulation"),
    (re.compile(r"#\s*pragma\s+(?:GCC|clang)\s+optimize\b"),
     "per-function optimize pragma can enable fast-math"),
    (re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON"),
     "FP contraction fuses multiply-add and changes rounding"),
    (re.compile(r"#\s*pragma\s+clang\s+fp\s+reassociate\s*\(\s*on\s*\)"),
     "explicit reassociation license"),
    (re.compile(r"__attribute__\s*\(\s*\(\s*optimize\b"),
     "per-function optimize attribute can enable fast-math"),
    (re.compile(r"\bfast-?math\b", re.IGNORECASE),
     "fast-math reference in a bit-identity kernel file"),
]

RANDOM_PATTERNS = [
    (re.compile(r"\bsrand\s*\("),
     "srand() seeds the shared libc PRNG"),
    (re.compile(r"(?<![\w:.])rand\s*\(\s*\)"),
     "rand() is not the audited seeded RNG"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device draws unauditable, unseedable entropy"),
    (re.compile(r"\bstd::mt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))"),
     "unseeded std::mt19937 default-constructs a fixed, documented state"),
]

# DL007(a): std sync primitives that bypass util/mutex.h.
STD_SYNC_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(?:_any)?"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock)\b")
# DL007(b): a dash::Mutex declaration (member or local; the missing
# space in MutexLock keeps RAII holders out of this).
MUTEX_DECL_RE = re.compile(
    r"(?:^|[\s(])(?:mutable\s+)?(?:dash::)?Mutex\s+\w+\s*[;{(=]")
# DL007(c): arming declaration — a ranked Mutex member.
MUTEX_ARM_RE = re.compile(
    r"(?:^|\s)(?:mutable\s+)?(?:dash::)?Mutex\s+(\w+)\s*[{(]\s*LockRank::")
# DL007(c): a plain data-member declaration with the trailing-underscore
# naming, no parentheses anywhere (so function declarations never match).
GUARDED_LOOKING_RE = re.compile(
    r"^(?:mutable\s+)?[\w:<>,&\*\s]+?\s(\w+_)\s*"
    r"(?:=\s*[\w:.\->]+\s*|\{[^()]*\}\s*)?;$")
# Types/specifiers that legitimately sit unannotated after a mutex.
GUARD_EXEMPT_TOKENS = ("DASH_GUARDED_BY", "DASH_PT_GUARDED_BY",
                       "std::atomic", "std::thread", "CondVar", "Mutex",
                       "static ", "constexpr ", "friend ", "using ")
# DL007(d): the opt-out attribute and its mandatory reason string.
NO_TSA_RE = re.compile(r"DASH_NO_THREAD_SAFETY_ANALYSIS\s*\(")
NO_TSA_REASON_RE = re.compile(
    r'DASH_NO_THREAD_SAFETY_ANALYSIS\s*\(\s*"[^"]')

MEMCPY_RE = re.compile(r"\b(?:std::)?memcpy\s*\(")
# The sanctioned scalar bit-cast idiom (pre-C++20 std::bit_cast):
#   memcpy(&bits, &x, sizeof(bits))
# is a register move, not wire traffic — DL003 does not apply.
BITCAST_RE = re.compile(
    r"memcpy\s*\(\s*&\w+\s*,\s*&[\w.\[\]>-]+\s*,\s*sizeof\b")
RELATIVE_INCLUDE_RE = re.compile(r'#\s*include\s+"\.\./')
GUARD_RE = re.compile(r"#ifndef\s+(\w+)")

# Scraping Status/Result-returning declarations from headers:
#   Status Foo(...);      Result<T> Bar(...);
# Methods and free functions alike; we only need the *name*.
DECL_RE = re.compile(
    r"^\s*(?:static\s+|virtual\s+|friend\s+|inline\s+|constexpr\s+)*"
    r"(?:dash::)?(?:Status|Result<[^;=]*?>)\s+"
    r"(?:\w+::)*(\w+)\s*\(")

# Names that return Status/Result but are overwhelmingly used for their
# side effects inside macros, or would false-positive (constructors etc).
SCRAPE_SKIP = {"Status", "Result", "Ok"}

# A bare statement calling `Name(` — optionally through obj. / obj-> /
# ns:: — is suspicious when Name returns a Status/Result.
CALL_SITE_TEMPLATE = r"^\s*(?:[\w\]\[\*\->\.\(\)]+\s*(?:\.|->)\s*|(?:\w+::)+)?({names})\s*\("

CHECKED_CONTEXT_RE = re.compile(
    r"(=|\breturn\b|DASH_RETURN_IF_ERROR|DASH_ASSIGN_OR_RETURN|DASH_CHECK"
    r"|DASH_LOG|EXPECT_|ASSERT_|\(void\)\s*$|\(void\))")


def rel(path):
    return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")


def iter_source_files(paths):
    if paths:
        for p in paths:
            yield os.path.abspath(p)
        return
    for d in SOURCE_DIRS:
        root = os.path.join(REPO_ROOT, d)
        for dirpath, _, files in os.walk(root):
            for f in sorted(files):
                if f.endswith((".cc", ".cpp", ".h", ".hpp", ".inc")):
                    yield os.path.join(dirpath, f)


def read_lines(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def line_disables(line, rule):
    m = DISABLE_RE.search(line)
    return m is not None and m.group(1) == rule


def strip_comment(line):
    # Good enough for lint purposes; does not handle /* */ spans.
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def scrape_status_functions():
    """Collect names of functions declared to return Status/Result<T>."""
    names = set()
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for f in sorted(files):
            if not f.endswith(".h"):
                continue
            for line in read_lines(os.path.join(dirpath, f)):
                m = DECL_RE.match(strip_comment(line))
                if m and m.group(1) not in SCRAPE_SKIP:
                    names.add(m.group(1))
    return names


# Canonical return types that must not be dropped (clang engine).
DL002_TYPE_RE = re.compile(r"^(?:const\s+)?(?:dash::)?(?:Status\b|Result<)")


def clang_dl002(cindex, path, compile_args):
    """(line, callee) of every statement-level dropped Status/Result.

    Walks compound statements and flags direct children that are bare
    CALL_EXPRs with a Status/Result canonical return type. Checked
    forms never appear as bare calls: assignments are DECL_STMTs,
    DASH_RETURN_IF_ERROR expands to a do-while, and `(void)` casts are
    CSTYLE_CAST_EXPRs.
    """
    tu = parse_tu(cindex, path, compile_args)
    hits = []

    def unwrap(c):
        while c.kind.name in ("UNEXPOSED_EXPR", "PAREN_EXPR"):
            kids = list(c.get_children())
            if len(kids) != 1:
                break
            c = kids[0]
        return c

    def visit(cursor):
        for child in cursor.get_children():
            if child.kind.name == "COMPOUND_STMT" \
                    and in_main_file(child, path):
                for stmt in child.get_children():
                    expr = unwrap(stmt)
                    if expr.kind.name != "CALL_EXPR":
                        continue
                    ty = expr.type.get_canonical().spelling
                    if DL002_TYPE_RE.match(ty):
                        hits.append((stmt.extent.start.line,
                                     expr.spelling or "call"))
            visit(child)

    visit(tu.cursor)
    return hits


def expected_guard(relpath):
    stem = relpath
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    return "DASH_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_"


class Linter:
    def __init__(self, status_names):
        self.findings = []
        if status_names:
            self.call_re = re.compile(CALL_SITE_TEMPLATE.format(
                names="|".join(sorted(re.escape(n) for n in status_names))))
        else:
            self.call_re = None

    def report(self, path, lineno, rule, message):
        self.findings.append(f"{rel(path)}:{lineno}: {rule}: {message}")

    def lint_file(self, path, clang_dl002_hits=None):
        """Lint one file. clang_dl002_hits=None means regex DL002; a
        list (possibly empty) means the AST engine already ran and its
        findings replace the regex rule for this file."""
        relpath = rel(path)
        try:
            lines = read_lines(path)
        except OSError as e:
            self.report(path, 0, "DL000", f"unreadable: {e}")
            return
        if clang_dl002_hits is not None:
            for (lineno, callee) in clang_dl002_hits:
                line = lines[lineno - 1] if lineno <= len(lines) else ""
                if line_disables(line, "DL002"):
                    continue
                self.report(
                    path, lineno, "DL002",
                    f"result of {callee}() is dropped (canonical return "
                    "type is Status/Result); assign it, wrap in "
                    "DASH_RETURN_IF_ERROR, or cast to (void) with a "
                    "reason")
        # Fixtures masquerade as an in-tree path so the path-scoped
        # rules (DL001 kernel set, DL003 allowlist, DL004 guards) fire.
        for line in lines[:5]:
            m = re.search(r"dash-lint-fixture-as:\s*(\S+)", line)
            if m:
                relpath = m.group(1)
                break
        stmt_prefix = ""
        # DL007(c) state: the name of the ranked dash::Mutex member seen
        # in the class currently being scanned, cleared at its `};`.
        armed_mutex = None
        in_util = relpath.startswith("src/util/")
        # DL006 state: the namespaces open at the current line, innermost
        # last ("" for an anonymous one).
        namespaces = []
        for i, raw in enumerate(lines, start=1):
            line = raw.rstrip()
            code = strip_comment(line)

            m = NAMESPACE_OPEN_RE.match(code)
            if m:
                namespaces.append(m.group(1))
            elif NAMESPACE_CLOSE_RE.match(line) and namespaces:
                namespaces.pop()
            if (SIMD_INCLUDE_RE.search(code)
                    and (not namespaces or namespaces[-1] != "")
                    and not line_disables(line, "DL006")):
                self.report(
                    path, i, "DL006",
                    "stats_kernels_simd.inc must be included inside an "
                    "anonymous namespace, so each ISA unit's kernel "
                    "instances keep internal linkage")

            # DL001 — float reassociation in kernel files.
            if relpath in KERNEL_FILES and not line_disables(line, "DL001"):
                for pattern, why in REASSOC_PATTERNS:
                    if pattern.search(code):
                        self.report(path, i, "DL001",
                                    f"forbidden in bit-identity kernel: {why}")
                        break

            # DL005 — unauditable randomness in src/mpc/.
            if relpath.startswith("src/mpc/") \
                    and not line_disables(line, "DL005"):
                for pattern, why in RANDOM_PATTERNS:
                    if pattern.search(code):
                        self.report(path, i, "DL005",
                                    f"forbidden in the MPC layer: {why}; "
                                    "use the seeded Rng/ChaCha20Rng path")
                        break

            # DL002 — unchecked Status/Result call as a bare statement.
            # `stmt_prefix` holds the earlier lines of the statement this
            # line continues, so a DASH_ASSIGN_OR_RETURN( three lines up
            # still counts as checking the call. Skipped entirely when
            # the AST engine already covered this file.
            if (clang_dl002_hits is None and self.call_re is not None
                    and code.strip().endswith(";")
                    and not line_disables(line, "DL002")):
                m = self.call_re.match(code)
                full_stmt = stmt_prefix + " " + code
                if m and not CHECKED_CONTEXT_RE.search(full_stmt):
                    # `.ok()` / `.value()` / `.status()` chained on the
                    # result means the caller looked at it.
                    after = code[m.end():]
                    if not re.search(r"\.\s*(ok|value|status)\s*\(", after):
                        self.report(
                            path, i, "DL002",
                            f"result of {m.group(1)}() is dropped; assign "
                            "it, wrap in DASH_RETURN_IF_ERROR, or cast "
                            "to (void) with a reason")

            # DL003 — memcpy outside the serialization boundary.
            if (relpath not in MEMCPY_ALLOWLIST
                    and not relpath.startswith(("tests/", "bench/"))
                    and MEMCPY_RE.search(code)
                    and not BITCAST_RE.search(code)
                    and not line_disables(line, "DL003")):
                self.report(
                    path, i, "DL003",
                    "raw memcpy outside net/serialization and "
                    "transport/frame; use ByteWriter/ByteReader")

            # DL006 — intrinsics outside src/core/kernels/.
            if (not relpath.startswith(INTRINSICS_DIR)
                    and INTRINSIC_RE.search(code)
                    and not line_disables(line, "DL006")):
                self.report(
                    path, i, "DL006",
                    "SIMD intrinsics and vector types are confined to "
                    "src/core/kernels/ "
                    "(runtime-dispatched, per-file target flags); use "
                    "the kernel dispatch table instead")

            # DL004 — relative includes.
            if RELATIVE_INCLUDE_RE.search(code) \
                    and not line_disables(line, "DL004"):
                self.report(path, i, "DL004",
                            'relative "../" include; use a path rooted '
                            "at src/")

            # DL007(a) — bare std sync primitives outside src/util/.
            if (not in_util and STD_SYNC_RE.search(code)
                    and not line_disables(line, "DL007")):
                self.report(
                    path, i, "DL007",
                    f"bare {STD_SYNC_RE.search(code).group(0)} is invisible "
                    "to thread-safety analysis and the lock-rank checker; "
                    "use dash::Mutex / MutexLock / CondVar (util/mutex.h)")

            # DL007(d) — the analysis opt-out must carry a reason. The
            # reason may wrap to the next line, so peek one line ahead.
            if (not in_util and NO_TSA_RE.search(code)
                    and not code.lstrip().startswith("#")
                    and not line_disables(line, "DL007")):
                window = code + " " + (lines[i] if i < len(lines) else "")
                if not NO_TSA_REASON_RE.search(window):
                    self.report(
                        path, i, "DL007",
                        "DASH_NO_THREAD_SAFETY_ANALYSIS needs a non-empty "
                        "reason string explaining why the analysis cannot "
                        "see this pattern")

            # DL007(b,c) — evaluated on whole statements so annotations
            # and initializers on continuation lines are seen.
            if (not in_util and code.strip().endswith(";")
                    and not line_disables(line, "DL007")):
                stmt = (stmt_prefix + " " + code.strip()).strip()
                arm = MUTEX_ARM_RE.search(stmt)
                if arm:
                    armed_mutex = arm.group(1)
                elif MUTEX_DECL_RE.search(stmt) \
                        and "LockRank::" not in stmt:
                    self.report(
                        path, i, "DL007",
                        "dash::Mutex must be constructed with a LockRank "
                        "(util/lock_rank.h keeps the global lock order "
                        "total)")
                elif (armed_mutex is not None
                      and relpath.startswith("src/")
                      and not any(t in stmt for t in GUARD_EXEMPT_TOKENS)):
                    member = GUARDED_LOOKING_RE.match(stmt)
                    if member:
                        self.report(
                            path, i, "DL007",
                            f"member {member.group(1)} follows ranked "
                            f"mutex {armed_mutex} but has no "
                            "DASH_GUARDED_BY(...); annotate it or declare "
                            "genuinely unguarded members before the mutex")
            if code.strip() == "};":
                armed_mutex = None

            stripped = code.strip()
            if not stripped or stripped.endswith((";", "{", "}")):
                stmt_prefix = ""
            else:
                stmt_prefix = (stmt_prefix + " " + stripped)[-400:]

        # DL006 — ISA translation units must guard their target macro so
        # a dropped per-file -m flag is a compile error, not a silent
        # portable miscompile.
        if relpath.startswith(INTRINSICS_DIR):
            for name_re, macro in ISA_GUARDS:
                if not name_re.search(relpath):
                    continue
                has_guard = any(
                    re.match(r"#\s*ifndef\s+" + macro + r"\b", l.strip())
                    for l in lines)
                has_error = any(
                    re.match(r"#\s*error\b", l.strip()) for l in lines)
                if not (has_guard and has_error) and not any(
                        line_disables(l, "DL006") for l in lines[:20]):
                    self.report(
                        path, 1, "DL006",
                        f"ISA translation unit lacks the '#ifndef {macro}' "
                        "+ '#error' guard that catches a missing per-file "
                        "target flag")

        # DL004 — include-guard naming for headers under src/.
        if relpath.startswith("src/") and relpath.endswith(".h"):
            guard = None
            # The guard may sit below a long doc comment; scan generously.
            for line in lines[:80]:
                m = GUARD_RE.match(line.strip())
                if m:
                    guard = m.group(1)
                    break
            want = expected_guard(relpath)
            if guard != want and not any(
                    line_disables(l, "DL004") for l in lines[:80]):
                self.report(path, 1, "DL004",
                            f"include guard {guard or '(missing)'} should "
                            f"be {want}")


def clang_hits_for(path, cindex, compile_db):
    """AST DL002 hits for `path`, or None to fall back to regex."""
    if cindex is None or not path.endswith((".cc", ".cpp")):
        return None
    try:
        return clang_dl002(cindex, path, args_for_path(path, compile_db))
    except Exception as e:
        print(f"dash_lint: libclang failed on {rel(path)} ({e}); regex "
              "DL002 for this file", file=sys.stderr)
        return None


def run_lint(paths, mode, build_dir):
    cindex, engine = pick_engine(mode, "dash_lint")
    compile_db = load_compile_db(build_dir) if engine == "clang" else None
    status_names = scrape_status_functions()
    linter = Linter(status_names)
    count = 0
    for path in iter_source_files(paths):
        if rel(path).startswith("tools/lint_fixtures/") and not paths:
            continue  # fixtures are intentionally bad
        hits = None
        if engine == "clang" and compile_db \
                and os.path.abspath(path) in compile_db:
            hits = clang_hits_for(path, cindex, compile_db)
        linter.lint_file(path, clang_dl002_hits=hits)
        count += 1
    for finding in linter.findings:
        print(finding)
    print(f"dash_lint[{engine}]: {count} files, "
          f"{len(linter.findings)} findings", file=sys.stderr)
    return 1 if linter.findings else 0


def run_self_test(mode):
    """Every fixture declares its expected findings in EXPECT lines.

    `EXPECT-LINT: DLxxx@n` is the regex-mode expectation. Fixtures that
    are self-contained enough for libclang additionally carry
    `EXPECT-LINT[clang]: DL002@n` markers; in clang mode those fixtures
    run with the AST DL002 engine, expecting the clang markers plus
    their non-DL002 regex markers. Fixtures without clang markers run
    with the regex engine in both modes (they reference real src/
    declarations and are not parseable in isolation).
    """
    cindex, engine = pick_engine(mode, "dash_lint")
    fixture_dir = os.path.join(REPO_ROOT, "tools", "lint_fixtures")
    fixtures = sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.endswith((".cc", ".h")))
    if not fixtures:
        print("dash_lint --self-test: no fixtures found", file=sys.stderr)
        return 1
    status_names = scrape_status_functions()
    failures = []
    for path in fixtures:
        expected_regex = set()
        expected_clang = set()
        for line in read_lines(path):
            m = re.search(r"EXPECT-LINT:\s*(DL\d{3})@(\d+)", line)
            if m:
                expected_regex.add((m.group(1), int(m.group(2))))
            m = re.search(r"EXPECT-LINT\[clang\]:\s*(DL\d{3})@(\d+)", line)
            if m:
                expected_clang.add((m.group(1), int(m.group(2))))
        linter = Linter(status_names)
        if engine == "clang" and expected_clang:
            hits = clang_hits_for(path, cindex, None)
            linter.lint_file(path, clang_dl002_hits=hits)
            expected = expected_clang | {
                e for e in expected_regex if e[0] != "DL002"}
        else:
            linter.lint_file(path)
            expected = expected_regex
        got = set()
        for finding in linter.findings:
            m = re.match(r"[^:]+:(\d+): (DL\d{3}):", finding)
            if m:
                got.add((m.group(2), int(m.group(1))))
        if got != expected:
            failures.append(
                f"{rel(path)}: expected {sorted(expected)}, got {sorted(got)}")
    for f in failures:
        print("self-test FAIL:", f)
    n_ok = len(fixtures) - len(failures)
    print(f"dash_lint[{engine}] --self-test: {n_ok}/{len(fixtures)} "
          "fixtures pass", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: the whole tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the linter against tools/lint_fixtures")
    parser.add_argument("--mode", choices=("auto", "clang", "regex"),
                        default="auto",
                        help="DL002 engine (default: clang when available)")
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"),
                        help="directory holding compile_commands.json")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test(args.mode)
    return run_lint(args.files, args.mode, args.build_dir)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repo-specific lint rules for the KGOA codebase.

Rules (see DESIGN.md, "Correctness tooling" and §11):

  bare-assert            No assert()/cassert outside src/util/contract.h —
                         invariants go through the leveled KGOA_CHECK /
                         KGOA_DCHECK contract macros so they print operands
                         and a backtrace, and stay active per build level.
  legacy-check-include   src/util/check.h is gone; nothing may include it.
  unordered-in-hot-path  No std::unordered_map / std::unordered_set inside
                         the hot-path dirs (src/index, src/join, src/core,
                         src/ola): node-based hashing is what FlatTable,
                         FlatAccumulator and ShardedFlatTable exist to
                         replace. Deliberate uses (reference baselines,
                         result containers) carry a
                         `kgoa-lint: allow(unordered-in-hot-path)` note.
  raw-rand               No rand()/srand()/std::mt19937/std::random_device
                         anywhere in src/: all randomness flows through the
                         seedable kgoa::Rng so runs stay reproducible.
  discarded-index-seek   A TrieIndex::SeekGE/Narrow/BlockEnd/Level0Range
                         result must not be discarded: these return the
                         new position/range, and dropping it means the
                         caller kept an unbounded cursor.
  seek-without-bounds-check
                         A TrieIterator::SeekGE (single-argument seek)
                         must have an AtEnd()/Key() bounds check within
                         +/-15 lines: the seek can exhaust the level, and
                         reading Key() at the end is undefined.
  raw-thread             No std::thread construction outside
                         src/ola/parallel.cc: every serve goes through the
                         persistent ServingCore worker pool, never a
                         thread-per-request. Deliberate uses (the parallel
                         index build, test/bench harnesses driving the
                         pool from multiple clients) carry a
                         `kgoa-lint: allow(raw-thread)` note.
  raw-level-array        No TrieIndex::RawTriplesForDerive() calls outside
                         src/index: the raw triple array only exists on the
                         raw storage tier (the block tier frees it), so any
                         caller bypassing the tier-agnostic accessors
                         (TripleAt/KeyAt/Narrow/SeekGE/BlockEnd) breaks as
                         soon as an IndexSet is built with
                         StorageTier::kBlock. Only IndexSet's chained radix
                         derivation may touch it.
  raw-mutex              No std::mutex / std::lock_guard / std::unique_lock
                         / std::condition_variable (or their timed/shared/
                         scoped siblings) outside src/util/sync.h: the
                         annotated kgoa::Mutex / MutexLock / CondVar
                         wrappers are the only legal lock types, because
                         the std types carry no thread-safety-analysis
                         capability attributes and silently disable the
                         clang -Wthread-safety stage for whatever they
                         guard (src/util/sync.h).
  naked-memory-order     Atomic load/store/exchange/fetch_*/
                         compare_exchange in src/** must name an explicit
                         std::memory_order. The serving core's lock-free
                         paths (cancellation tokens, published table
                         arrays, slot keys) are correctness-ordered; a
                         defaulted seq_cst is either an unstated crutch or
                         an accident, and both deserve a spelled-out order.
  cv-wait-predicate      CondVar::Wait / WaitFor must use the predicate
                         overload (Wait(mu, pred) / WaitFor(mu, d, pred)):
                         a bare wait invites the classic spurious-wakeup
                         bug (also flagged by clang-tidy's
                         bugprone-spuriously-wake-up-functions).
  raw-graph-retention    No raw `Graph*` / `IndexSet*` (or `const Graph&` /
                         `const IndexSet&`) members outside src/index and
                         src/rdf: since the snapshot-epoch refactor
                         (DESIGN.md §13) the current version's Graph and
                         IndexSet are replaced by every compaction, so a
                         raw member held across an epoch boundary dangles.
                         Long-lived holders keep a GraphSnapshot (which
                         pins the version); query-scoped engines that
                         provably live inside one pinned serving call
                         carry a `kgoa-lint: allow(raw-graph-retention)`
                         note naming the snapshot that outlives them.
  raw-intrinsic          No <immintrin.h>-family includes or _mm*/__m128/
                         __m256 intrinsics outside src/util/simd.h and
                         src/index/kernels.{h,cc}: the kernel layer is the
                         single dispatch point (per-function target
                         attributes, scalar fallback, differential tests);
                         a stray intrinsic elsewhere either breaks the
                         no.-march build or silently skips the KGOA_SIMD
                         scalar-fallback stage.
  hash-bypass            No IndexSet::Hash() call in src/ outside
                         src/index: the hash range tables answer in the
                         BASE position space, which shifts under an overlay
                         view (DESIGN.md §13). Depth lookups go through
                         IndexSet::Depth1/Depth2/Ndv2, which shift the
                         base range into merged positions; the registry's
                         memory accounting, which reads entry counts only,
                         carries a `kgoa-lint: allow(hash-bypass)` note.
  block-decode           No BlockedColumn::DecodeBlock() or
                         kernels::UnpackBits() call in src/ outside
                         src/index/block_codec.cc: block-tier reads come
                         straight from the packed bytes (one directory
                         load plus one payload load per value), and a
                         whole-block decode on a query path is the 128x
                         work the decode-free tier removed. The audits,
                         the fuzzer and the kernel benchmark (outside
                         src/) may decode.

Suppression: append `// kgoa-lint: allow(<rule>[, <rule>...])` on the
offending line or the line directly above, with a reason. Exits 1 when any
finding is reported, 0 on a clean tree.

Modes:
  (default)        lint the tree.
  --stale-allows   lint the tree, then report every `kgoa-lint: allow`
                   whose rule no longer fires on the line it covers (dead
                   suppressions rot into false documentation). Exits 1 if
                   any are stale.
  --self-test      run the built-in rule unit tests (synthetic sources fed
                   through the same lint path the tree uses). Exits 1 on
                   any self-test failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

ALLOW_RE = re.compile(r"kgoa-lint:\s*allow\(([^)]*)\)")

# TrieIndex seeks take (range, level, value[, from]): >= 2 top-level commas.
INDEX_SEEK_STMT_RE = re.compile(
    r"^\s*[A-Za-z_][\w.\->()\[\]]*[.\->]+(SeekGE|Narrow|BlockEnd|Level0Range)\s*\("
)
ITER_SEEK_RE = re.compile(r"[.\->]SeekGE\s*\(")
BOUNDS_RE = re.compile(r"AtEnd\s*\(|Key\s*\(")

RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b"
)

ATOMIC_OP_RE = re.compile(
    r"[.\->](load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|"
    r"test_and_set|clear|wait)\s*\("
)
# Methods above that only LOOK atomic on non-atomic types; `clear`/`wait`
# are so common they would drown the rule, so they are checked only when
# the receiver is visibly atomic-ish. Keeping the rule precise beats
# keeping it total: the TSA stage and TSan cover what slips through.
ATOMIC_ONLY_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}

CV_WAIT_RE = re.compile(r"[.\->](Wait|WaitFor)\s*\(")

# Raw Graph/IndexSet retention: a member declaration (trailing-underscore
# name, any initializer) or a bare field (plain name, no initializer or
# `= nullptr`) whose type is a raw pointer/reference to Graph or IndexSet.
# Locals with initializers deliberately do not match: a reference scoped
# inside one call cannot cross an epoch boundary.
RAW_GRAPH_RETAIN_RE = re.compile(
    r"^\s*(?:const\s+)?(?:kgoa::)?(Graph|IndexSet)\s*[*&]\s*"
    r"(?:\w+_\s*(?:=[^;]*)?|[A-Za-z]\w*\s*(?:=\s*nullptr\s*)?);"
)

# A call of IndexSet::Hash (through an object or a pointer).
HASH_CALL_RE = re.compile(r"(?:\.|->)Hash\s*\(")

# A whole-block decode: BlockedColumn::DecodeBlock or the unpack kernel.
BLOCK_DECODE_RE = re.compile(r"\b(DecodeBlock|UnpackBits)\s*\(")
# Text before a declared (not called) name: a type, then the name's
# optional qualifier, e.g. `uint32_t BlockedColumn::` or `void `.
DECL_PREFIX_RE = re.compile(r"([A-Za-z_]\w*)[\s*&>]+(?:\w+::)*$")
NOT_A_TYPE = {"return", "co_return", "else", "case"}


def is_declaration(prefix: str) -> bool:
    m = DECL_PREFIX_RE.search(prefix)
    return m is not None and m.group(1) not in NOT_A_TYPE

# x86 SIMD surface: the intrinsic headers and the _mm*/__m* value types.
INTRINSIC_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](immintrin|x86intrin|emmintrin|smmintrin|tmmintrin|'
    r"nmmintrin|wmmintrin|avxintrin|avx2intrin)\.h")
INTRINSIC_TOKEN_RE = re.compile(r"\b(_mm(?:256|512)?_\w+|__m(?:128|256|512)[id]?)\b")

# The only translation units allowed to touch raw intrinsics: the dispatch
# header and the kernel layer itself.
INTRINSIC_ALLOWED = {
    "src/util/simd.h",
    "src/util/simd.cc",
    "src/index/kernels.h",
    "src/index/kernels.cc",
}

# How far an argument list may spill across lines before the scanners
# give up (all real call sites in the tree fit comfortably).
MAX_ARG_SPAN_LINES = 10


def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments and string literals, keeping line
    structure so reported line numbers stay valid."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def top_level_commas(line: str, start: int) -> int:
    """Counts commas at paren depth 1 from the '(' at/after `start`;
    best-effort within one line."""
    depth = 0
    commas = 0
    for ch in line[start:]:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth <= 0:
                break
        elif ch == "," and depth == 1:
            commas += 1
    return commas


def span_call_args(code_lines: list[str], lineno: int, col: int):
    """Returns (args_text, top_level_commas) for the call whose '(' is at
    `code_lines[lineno - 1][col]`, scanning across up to MAX_ARG_SPAN_LINES
    lines. Returns (None, 0) when the call does not close in the window
    (macro soup, pathological formatting) — callers should not report on a
    span they could not parse."""
    depth = 0
    commas = 0
    parts: list[str] = []
    for offset in range(MAX_ARG_SPAN_LINES):
        idx = lineno - 1 + offset
        if idx >= len(code_lines):
            break
        line = code_lines[idx]
        start = col if offset == 0 else 0
        for j in range(start, len(line)):
            ch = line[j]
            if ch in "([{":
                depth += 1
                if depth == 1:
                    continue  # the opening paren itself
            elif ch in ")]}":
                depth -= 1
                if depth <= 0:
                    return "".join(parts), commas
            elif ch == "," and depth == 1:
                commas += 1
            if depth >= 1:
                parts.append(ch)
        parts.append("\n")
    return None, 0


class Linter:
    def __init__(self) -> None:
        self.findings: list[str] = []
        # Every allow comment seen: (rel_path, lineno, rule).
        self.allows_seen: set[tuple[str, int, str]] = set()
        # Allow comments that actually suppressed a finding.
        self.allows_used: set[tuple[str, int, str]] = set()

    def report(self, rel: str, lineno: int, rule: str, msg: str) -> None:
        self.findings.append(f"{rel}:{lineno}: [{rule}] {msg}")

    def allowed(self, rel: str, rule: str, raw_lines: list[str],
                lineno: int) -> bool:
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(raw_lines):
                m = ALLOW_RE.search(raw_lines[ln - 1])
                if m and rule in [r.strip() for r in m.group(1).split(",")]:
                    self.allows_used.add((rel, ln, rule))
                    return True
        return False

    def lint_file(self, path: Path) -> None:
        raw = path.read_text(encoding="utf-8", errors="replace")
        self.lint_text(path.relative_to(REPO).as_posix(), raw)

    def lint_text(self, rel: str, raw: str) -> None:
        raw_lines = raw.splitlines()
        code = strip_comments(raw)
        code_lines = code.splitlines()
        in_src = rel.startswith("src/")
        in_hot = rel.startswith(
            ("src/index/", "src/join/", "src/core/", "src/ola/"))
        is_contract = rel == "src/util/contract.h"
        is_serving_core = rel == "src/ola/parallel.cc"
        is_sync = rel == "src/util/sync.h"
        is_index_impl = rel in (
            "src/index/trie_index.h",
            "src/index/trie_index.cc",
            "src/index/trie_iterator.cc",
        )

        for i, ln in enumerate(raw_lines, start=1):
            for m in ALLOW_RE.finditer(ln):
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    if rule:
                        self.allows_seen.add((rel, i, rule))

        def check(rule: str, lineno: int, msg: str) -> None:
            if not self.allowed(rel, rule, raw_lines, lineno):
                self.report(rel, lineno, rule, msg)

        for i, line in enumerate(code_lines, start=1):
            # legacy-check-include: everywhere, including comments is fine
            # to skip — only a real include can resurrect the header.
            if re.search(r'#\s*include\s*[<"].*util/check\.h', line):
                check("legacy-check-include", i,
                      "src/util/check.h was replaced by src/util/contract.h")

            if in_src and not is_contract:
                if re.search(r"(?<![\w.])assert\s*\(", line) and \
                        "static_assert" not in line:
                    check("bare-assert", i,
                          "use KGOA_CHECK/KGOA_DCHECK from "
                          "src/util/contract.h instead of assert()")
                if re.search(r'#\s*include\s*<(cassert|assert\.h)>', line):
                    check("bare-assert", i,
                          "do not include <cassert>; use src/util/contract.h")
                if re.search(r"(?<![\w.])s?rand\s*\(|std::mt19937|"
                             r"std::random_device|std::default_random_engine",
                             line):
                    check("raw-rand", i,
                          "use the seedable kgoa::Rng (src/util/rng.h); "
                          "unseeded/global RNGs break reproducibility")

            # raw-thread: applies to every root (src, tests, bench,
            # examples, fuzz) — the serving core owns the only pool.
            # `std::thread` followed by (, {, or an identifier is a
            # construction; `std::thread::` (e.g. hardware_concurrency)
            # and std::this_thread are fine.
            if not is_serving_core:
                if re.search(r"\bstd::thread\s*(?![:])", line):
                    check("raw-thread", i,
                          "std::thread construction is reserved for the "
                          "ServingCore pool (src/ola/parallel.cc); submit "
                          "jobs to the pool or annotate the deliberate "
                          "exception")

            # raw-mutex: applies to every root. Only src/util/sync.h may
            # touch the unannotated std lock types — it wraps them once,
            # with the TSA capability attributes attached.
            if not is_sync:
                if RAW_MUTEX_RE.search(line):
                    check("raw-mutex", i,
                          "std lock types carry no thread-safety "
                          "annotations; use kgoa::Mutex / kgoa::MutexLock "
                          "/ kgoa::CondVar (src/util/sync.h) or annotate "
                          "the deliberate exception")

            # cv-wait-predicate: every root — a CondVar wait must pass a
            # predicate (Wait(mu, pred) has >= 1 top-level comma,
            # WaitFor(mu, timeout, pred) >= 2). The span scanner follows
            # multi-line argument lists.
            if not is_sync:
                for m in CV_WAIT_RE.finditer(line):
                    name = m.group(1)
                    args, commas = span_call_args(code_lines, i, m.end() - 1)
                    if args is None:
                        continue
                    need = 1 if name == "Wait" else 2
                    if commas < need:
                        check("cv-wait-predicate", i,
                              f"CondVar::{name} must use the predicate "
                              "overload; a bare wait returns on spurious "
                              "wakeups")

            # raw-intrinsic: every root except the kernel layer itself —
            # intrinsics behind the runtime dispatch only, so the
            # no--march build and the KGOA_SIMD=off stage stay honest.
            if rel not in INTRINSIC_ALLOWED:
                if INTRINSIC_INCLUDE_RE.search(line) or \
                        INTRINSIC_TOKEN_RE.search(line):
                    check("raw-intrinsic", i,
                          "raw SIMD intrinsics are fenced into src/util/"
                          "simd.h and src/index/kernels.{h,cc}; route new "
                          "vector code through the kernel layer's runtime "
                          "dispatch (scalar fallback + differential tests)")

            # raw-level-array: everywhere outside src/index — the raw
            # triple array is a tier-private detail (absent on the block
            # tier); readers must stay behind the iterator contract.
            if not rel.startswith("src/index/"):
                if re.search(r"\bRawTriplesForDerive\s*\(", line):
                    check("raw-level-array", i,
                          "RawTriplesForDerive() bypasses the storage-tier "
                          "abstraction and is empty on the block tier; use "
                          "the tier-agnostic TripleAt/KeyAt/Narrow/SeekGE/"
                          "BlockEnd accessors")

            # raw-graph-retention: src only, outside the index/rdf layers
            # that define and version these types. A raw member dangles at
            # the first compaction; hold a GraphSnapshot instead.
            if in_src and not rel.startswith(("src/index/", "src/rdf/")):
                m = RAW_GRAPH_RETAIN_RE.match(line)
                if m:
                    check("raw-graph-retention", i,
                          f"raw {m.group(1)} pointer/reference member "
                          "dangles when compaction publishes a new epoch; "
                          "hold a GraphSnapshot (src/index/snapshot.h), or "
                          "annotate a query-scoped engine that a pinned "
                          "snapshot provably outlives")

            # hash-bypass: src only, outside the index layer that owns
            # the tables and shifts their ranges for overlay views.
            if in_src and not rel.startswith("src/index/"):
                if HASH_CALL_RE.search(line):
                    check("hash-bypass", i,
                          "IndexSet::Hash() answers in the base position "
                          "space, which an overlay view shifts; use "
                          "IndexSet::Depth1/Depth2/Ndv2")

            # block-decode: src only, outside the codec that owns the
            # decode (its CheckInvariants audit is the one caller).
            if in_src and rel != "src/index/block_codec.cc":
                m = BLOCK_DECODE_RE.search(line)
                if m and not is_declaration(line[:m.start()]):
                    check("block-decode", i,
                          f"{m.group(1)}() decodes a whole block; query "
                          "paths read packed values in place through "
                          "BlockedColumn::Get/SeekGE/SeekGT")

            if in_hot:
                if re.search(r"\bunordered_(map|set)\b", line):
                    check("unordered-in-hot-path", i,
                          "node-based hash containers are banned in the "
                          "hot-path dirs (src/index, src/join, src/core, "
                          "src/ola); use FlatTable/FlatAccumulator/"
                          "ShardedFlatTable or annotate the deliberate "
                          "exception")

            # naked-memory-order: src only. The argument span may continue
            # on later lines; the scanner reads the balanced parens.
            if in_src:
                for m in ATOMIC_OP_RE.finditer(line):
                    op = m.group(1)
                    if op not in ATOMIC_ONLY_OPS:
                        continue
                    args, _ = span_call_args(code_lines, i, m.end() - 1)
                    if args is None:
                        continue
                    if "memory_order" not in args:
                        check("naked-memory-order", i,
                              f"atomic {op}() without an explicit "
                              "std::memory_order; the lock-free paths are "
                              "correctness-ordered — spell the order out "
                              "(seq_cst included, if that is really what "
                              "the site needs)")

            if in_src and not is_index_impl:
                m = INDEX_SEEK_STMT_RE.match(line)
                if m and top_level_commas(line, m.end() - 1) >= 2:
                    check("discarded-index-seek", i,
                          f"result of TrieIndex::{m.group(1)} is discarded; "
                          "the returned position/range is the seek's only "
                          "output")
                sm = ITER_SEEK_RE.search(line)
                if sm and top_level_commas(line, sm.end() - 1) == 0:
                    lo = max(0, i - 16)
                    hi = min(len(code_lines), i + 15)
                    window = "\n".join(code_lines[lo:hi])
                    if not BOUNDS_RE.search(window):
                        check("seek-without-bounds-check", i,
                              "TrieIterator::SeekGE can exhaust the level; "
                              "check AtEnd()/Key() near the seek")

    def lint_tree(self) -> None:
        roots = ["src", "fuzz", "tests", "bench", "examples"]
        for root in roots:
            base = REPO / root
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in (".h", ".cc"):
                    self.lint_file(path)

    def stale_allows(self) -> list[str]:
        stale = sorted(self.allows_seen - self.allows_used)
        return [
            f"{rel}:{lineno}: stale suppression: allow({rule}) — the rule "
            "no longer fires here; delete the note"
            for rel, lineno, rule in stale
        ]

    def run(self, report_stale: bool = False) -> int:
        self.lint_tree()
        for finding in self.findings:
            print(finding)
        extra = self.stale_allows() if report_stale else []
        for finding in extra:
            print(finding)
        n = len(self.findings) + len(extra)
        print(f"kgoa_lint: {n} finding{'s' if n != 1 else ''}")
        return 1 if n else 0


# ---------------------------------------------------------------------------
# Self-test: synthetic sources through the same lint path the tree uses.
# ---------------------------------------------------------------------------

def self_test() -> int:
    # (name, pseudo-path, source, expected rules firing in that source)
    cases = [
        ("raw mutex in src", "src/foo/bar.cc",
         "std::mutex m;\n", {"raw-mutex"}),
        ("raw lock guard in tests", "tests/foo_test.cc",
         "std::lock_guard<std::mutex> lock(m);\n", {"raw-mutex"}),
        ("raw condition_variable", "src/foo/bar.h",
         "std::condition_variable cv_;\n", {"raw-mutex"}),
        ("sync.h itself is exempt", "src/util/sync.h",
         "std::mutex mu_;\nstd::condition_variable cv_;\n", set()),
        ("allowed raw mutex", "src/foo/bar.cc",
         "// kgoa-lint: allow(raw-mutex) wrapping a C API\n"
         "std::mutex m;\n", set()),
        ("kgoa wrappers pass", "src/foo/bar.cc",
         "Mutex mu_;\nMutexLock lock(mu_);\nCondVar cv_;\n", set()),
        ("naked load", "src/foo/bar.cc",
         "int v = flag.load();\n", {"naked-memory-order"}),
        ("naked exchange", "src/foo/bar.cc",
         "if (!token.exchange(true)) {}\n", {"naked-memory-order"}),
        ("ordered load", "src/foo/bar.cc",
         "int v = flag.load(std::memory_order_acquire);\n", set()),
        ("order on continuation line", "src/foo/bar.cc",
         "token.exchange(true,\n"
         "               std::memory_order_acq_rel);\n", set()),
        ("ordered fetch_add", "src/foo/bar.cc",
         "hits.fetch_add(1, std::memory_order_relaxed);\n", set()),
        ("naked store outside src is fine", "tests/foo_test.cc",
         "flag.store(true);\n", set()),
        ("overload.load in comment", "src/foo/bar.cc",
         "// counters.load() is described here\nint x = 0;\n", set()),
        ("bare cv wait", "src/foo/bar.cc",
         "cv.Wait(mu);\n", {"cv-wait-predicate"}),
        ("predicate cv wait", "src/foo/bar.cc",
         "cv.Wait(mu, [&] { return done; });\n", set()),
        ("predicate wait, multi-line", "src/foo/bar.cc",
         "cv.Wait(mu,\n"
         "        [&] { return stopping || !queue.empty(); });\n", set()),
        ("wait-for without predicate", "src/foo/bar.cc",
         "cv.WaitFor(mu, timeout);\n", {"cv-wait-predicate"}),
        ("wait-for with predicate", "src/foo/bar.cc",
         "cv.WaitFor(mu, timeout, [&] { return done; });\n", set()),
        ("Await is not Wait", "src/foo/bar.cc",
         "result = handle.Await();\n", set()),
        ("intrinsic include outside kernels", "src/core/fast.cc",
         "#include <immintrin.h>\n", {"raw-intrinsic"}),
        ("intrinsic call outside kernels", "src/ola/hot.cc",
         "__m256i v = _mm256_loadu_si256(p);\n", {"raw-intrinsic"}),
        ("sse intrinsic in tests", "tests/foo_test.cc",
         "auto x = _mm_crc32_u64(a, b);\n", {"raw-intrinsic"}),
        ("kernels.cc may use intrinsics", "src/index/kernels.cc",
         "#include <immintrin.h>\n__m256i v = _mm256_set1_epi32(1);\n",
         set()),
        ("simd.h may name intrinsics", "src/util/simd.h",
         "#include <immintrin.h>\n", set()),
        ("prefetch builtin is not an intrinsic", "src/index/flat_table.h",
         "__builtin_prefetch(slots_.data(), 0, 1);\n", set()),
        ("allowed intrinsic", "src/rdf/hash.cc",
         "// kgoa-lint: allow(raw-intrinsic) hardware CRC seed\n"
         "auto x = _mm_crc32_u64(a, b);\n", set()),
        ("raw IndexSet ref member", "src/join/foo.h",
         "  const IndexSet& indexes_;\n", {"raw-graph-retention"}),
        ("raw Graph pointer member", "src/core/foo.h",
         "  Graph* graph_ = nullptr;\n", {"raw-graph-retention"}),
        ("raw IndexSet field in an options struct", "src/ola/foo.h",
         "  const IndexSet* indexes = nullptr;\n", {"raw-graph-retention"}),
        ("qualified Graph ref member", "src/eval/foo.h",
         "  const kgoa::Graph& graph_;\n", {"raw-graph-retention"}),
        ("index layer may retain raw", "src/index/foo.h",
         "  const Graph& graph_;\n", set()),
        ("rdf layer may retain raw", "src/rdf/foo.h",
         "  Graph* graph_ = nullptr;\n", set()),
        ("tests may retain raw", "tests/foo_test.cc",
         "  const IndexSet& indexes_;\n", set()),
        ("snapshot member passes", "src/explore/foo.h",
         "  GraphSnapshot snapshot_;\n", set()),
        ("owning pointer passes", "src/core/foo.h",
         "  std::unique_ptr<IndexSet> indexes_;\n", set()),
        ("call-scoped ref local passes", "src/core/foo.cc",
         "  const IndexSet& indexes = snapshot.indexes();\n", set()),
        ("allowed query-scoped engine", "src/join/foo.h",
         "  // kgoa-lint: allow(raw-graph-retention) engine is query-"
         "scoped\n"
         "  const IndexSet& indexes_;\n", set()),
        ("hash probe outside the index layer", "src/core/foo.cc",
         "Range r = indexes.Hash(order).Depth2(a, b);\n", {"hash-bypass"}),
        ("hash probe through a pointer", "src/join/foo.cc",
         "uint64_t n = indexes->Hash(order).Ndv2(v);\n", {"hash-bypass"}),
        ("index layer may probe its tables", "src/index/foo.cc",
         "const Range r = Hash(order).Depth1(v) ;\n"
         "const Range s = base.Hash(order).Depth1(v);\n", set()),
        ("allowed hash accounting", "src/eval/registry.cc",
         "// kgoa-lint: allow(hash-bypass) entry counts only\n"
         "const HashRangeIndex& hash = indexes.Hash(order);\n", set()),
        ("tests may probe the tables", "tests/foo_test.cc",
         "const HashRangeIndex& hash = indexes_.Hash(order);\n", set()),
        ("TripleHash is not Hash", "src/core/foo.cc",
         "std::size_t h = TripleHash()(t);\n", set()),
        ("depth helpers pass", "src/core/foo.cc",
         "Range r = indexes.Depth2(order, a, b);\n", set()),
        ("block decode on a query path", "src/index/trie_index.cc",
         "const uint32_t n = cols_[level].DecodeBlock(b, vals);\n",
         {"block-decode"}),
        ("unpack kernel outside the codec", "src/core/audit.cc",
         "kernels::UnpackBits(p, end, count, base, width, out);\n",
         {"block-decode"}),
        ("codec may decode for its audit", "src/index/block_codec.cc",
         "const uint32_t count = DecodeBlock(b, vals);\n"
         "kernels::UnpackBits(p, end, n, min, width, out.data());\n", set()),
        ("tests and benches may decode", "tests/foo_test.cc",
         "const uint32_t count = col.DecodeBlock(b, vals);\n", set()),
        ("declaration in a comment is fine", "src/index/kernels.h",
         "// DecodeBlock(b, out) unpacks one block\nint x = 0;\n", set()),
        ("declarations and definitions are not calls", "src/index/kernels.cc",
         "void UnpackBits(const uint8_t* in, uint32_t n);\n"
         "uint32_t BlockedColumn::DecodeBlock(uint32_t block,\n", set()),
        ("returned decode is a call", "src/index/foo.cc",
         "  return DecodeBlock(b, vals);\n", {"block-decode"}),
        ("existing rule still fires", "src/foo/bar.cc",
         "assert(x > 0);\n", {"bare-assert"}),
        ("raw thread still fires", "tests/foo_test.cc",
         "std::thread t([] {});\n", {"raw-thread"}),
    ]

    failures = []
    for name, rel, source, expected in cases:
        linter = Linter()
        linter.lint_text(rel, source)
        fired = set()
        for finding in linter.findings:
            m = re.search(r"\[([a-z-]+)\]", finding)
            if m:
                fired.add(m.group(1))
        if fired != expected:
            failures.append(
                f"  {name}: expected {sorted(expected) or '{}'}, "
                f"got {sorted(fired) or '{}'}")

    # Stale-allow bookkeeping: a used allow is not stale, an unused one is.
    linter = Linter()
    linter.lint_text(
        "src/foo/bar.cc",
        "// kgoa-lint: allow(raw-mutex) used below\n"
        "std::mutex m;\n"
        "int y;  // kgoa-lint: allow(naked-memory-order) nothing here\n")
    stale = linter.stale_allows()
    if linter.findings:
        failures.append(f"  stale-allows: unexpected findings "
                        f"{linter.findings}")
    if len(stale) != 1 or "naked-memory-order" not in stale[0]:
        failures.append(f"  stale-allows: expected exactly the unused "
                        f"naked-memory-order note, got {stale}")

    if failures:
        print("kgoa_lint self-test FAILED:")
        for f in failures:
            print(f)
        return 1
    print(f"kgoa_lint self-test OK ({len(cases) + 1} cases)")
    return 0


if __name__ == "__main__":
    if "--self-test" in sys.argv[1:]:
        sys.exit(self_test())
    sys.exit(Linter().run(report_stale="--stale-allows" in sys.argv[1:]))

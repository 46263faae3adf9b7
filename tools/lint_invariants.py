#!/usr/bin/env python3
"""Project-invariant lint: concurrency rules the annotations can't express.

Clang Thread Safety Analysis (see docs/static_analysis.md) checks that
guarded state is touched under its capability. The rules here are the
engine-specific invariants that live *between* modules, where no single
lock annotation can see them:

  R1  Swizzle-tag containment. kSwizzledRefBit-tagged PageIds are a
      runtime-only encoding; any image or record that leaves the buffer
      pool must be sanitized first. The tagging helpers may therefore
      appear only in the modules that implement the protocol and its
      sanitize hooks — never in src/io/ (DiskManager, WAL storage) or
      src/index/persistent/ (IndexLogger), whose write APIs must only
      ever see plain ids.

  R2  memory_order_relaxed allowlist. Relaxed atomics are reserved for
      counters, profilers, and validated-later peeks. A new relaxed
      access requires adding its file here — i.e. a reviewed diff of
      this allowlist — not just compiling.

  R3  Raw latch acquires. Page latches are taken through LatchGuard
      (policy-aware, capability-typed). Direct Acquire*/TryAcquire*
      calls are confined to the files implementing crabbing, eviction's
      try-latch, and the profiler probe.

  R4  No std locking primitives outside src/sync/. The analysis cannot
      see through std::mutex; every engine lock goes through the
      capability-typed wrappers in src/sync/latch.h.

  R5  Every PLP_NO_THREAD_SAFETY_ANALYSIS escape carries a nearby
      "protocol:" comment naming the lock-free protocol it opts out
      for. An escape without a named protocol is just a suppressed
      warning.

Exit status 0 = clean; 1 = violations (one "file:line: [RULE] ..." per
finding). Run from anywhere: paths resolve relative to the repo root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# --- R1: swizzle-tag containment -------------------------------------------
SWIZZLE_RE = re.compile(
    r"\b(kSwizzledRefBit|SwizzleRef|IsSwizzledRef|SwizzledFrameIndex|"
    r"SwizzledFrame)\b"
)
SWIZZLE_ALLOW = {
    "src/common/types.h",       # the encoding itself
    "src/buffer/buffer_pool.h",  # frame arena, sanitize hooks
    "src/buffer/buffer_pool.cc",
    "src/index/btree.h",        # descent fast path + unswizzle hooks
    "src/index/btree.cc",
    "src/index/btree_node.h",   # tagged child slots (in-memory only)
    "src/index/btree_node.cc",
}
# Directories whose write APIs must never see a tagged id.
SWIZZLE_FORBIDDEN_DIRS = ("src/io/", "src/index/persistent/")

# --- R2: memory_order_relaxed allowlist ------------------------------------
RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_ALLOW = {
    # Buffer pool: stat counters, clock-sweep hints, budget soft-peeks
    # (every lock-free read is revalidated under the shard mutex/fence).
    "src/buffer/buffer_pool.h",
    "src/buffer/buffer_pool.cc",
    "src/buffer/page.h",
    "src/buffer/page_cleaner.h",
    "src/buffer/page_cleaner.cc",
    # Engine: gauge snapshots and repartition progress counters.
    "src/engine/engine.cc",
    "src/engine/partition_manager.cc",
    "src/engine/repartitioner.h",
    "src/engine/repartitioner.cc",
    # Index: entry/SMO counters and level peeks revalidated by crabbing.
    "src/index/btree.h",
    "src/index/btree.cc",
    "src/index/btree_node.cc",
    # IO: allocation high-water marks and size gauges.
    "src/io/disk_manager.h",
    "src/io/disk_manager.cc",
    "src/io/wal_storage.cc",
    # Lock/log/txn managers: stat counters and sequence peeks.
    "src/lock/lock_manager.h",
    "src/lock/lock_manager.cc",
    "src/log/log_buffer.cc",
    "src/log/log_manager.h",
    "src/log/log_manager.cc",
    "src/txn/txn_manager.h",
    "src/txn/txn_manager.cc",
    # Metrics/profiling: the whole point is uncoordinated counting.
    # flight_recorder is the seqlock SPSC ring: relaxed payload stores
    # fenced by the seq generation protocol (validated-later reads).
    "src/metrics/flight_recorder.h",
    "src/metrics/flight_recorder.cc",
    "src/metrics/registry.h",
    "src/metrics/registry.cc",
    "src/sync/cs_profiler.cc",
    "src/sync/spinlock.h",
    # Workloads: generator statistics.
    "src/workload/tpcb.cc",
    "src/workload/tpcc.cc",
    "src/workload/workload_driver.cc",
}

# --- R3: raw latch acquires -------------------------------------------------
LATCH_ACQ_RE = re.compile(
    r"\b(?:latch\(\)|latch_)\s*\.\s*(?:Try)?Acquire(?:Shared|Exclusive)?\s*\("
)
LATCH_ACQ_ALLOW = {
    "src/sync/latch.h",              # the implementation
    "src/index/btree.cc",            # latch crabbing (guard-per-level)
    "src/buffer/buffer_pool.cc",     # eviction/unswizzle try-latch
    "src/metrics/time_breakdown.cc",  # uncontended latch-cost calibration
}

# --- R4: std locking primitives ---------------------------------------------
STD_LOCK_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|shared_lock|scoped_lock)\b"
)
STD_LOCK_ALLOW_DIR = "src/sync/"

# --- R5: NO_TSA escapes need a named protocol --------------------------------
NO_TSA_RE = re.compile(r"\bPLP_NO_THREAD_SAFETY_ANALYSIS\b")
PROTOCOL_RE = re.compile(r"protocol:")
NO_TSA_SKIP = {"src/sync/thread_annotations.h"}  # the macro definition
PROTOCOL_WINDOW = 12  # lines above the escape that may carry the comment


def rel(path: Path) -> str:
    return path.relative_to(REPO).as_posix()


def lint_file(path: Path, findings: list) -> None:
    name = rel(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines, start=1):
        code = line.split("//", 1)[0]

        if SWIZZLE_RE.search(code) and name not in SWIZZLE_ALLOW:
            rule = "R1"
            if name.startswith(SWIZZLE_FORBIDDEN_DIRS):
                detail = ("tagged-PageId symbol in a write-API module; "
                          "sanitize before crossing this boundary")
            else:
                detail = ("tagged-PageId symbol outside the swizzle "
                          "protocol allowlist")
            findings.append((name, i, rule, detail))

        if RELAXED_RE.search(code) and name not in RELAXED_ALLOW:
            findings.append((
                name, i, "R2",
                "memory_order_relaxed outside the allowlist — justify the "
                "ordering and add the file to RELAXED_ALLOW in a reviewed "
                "diff"))

        if LATCH_ACQ_RE.search(code) and name not in LATCH_ACQ_ALLOW:
            findings.append((
                name, i, "R3",
                "raw latch acquire — use LatchGuard (or extend "
                "LATCH_ACQ_ALLOW for a new lock-free protocol)"))

        if STD_LOCK_RE.search(code) and not name.startswith(
                STD_LOCK_ALLOW_DIR):
            findings.append((
                name, i, "R4",
                "std locking primitive invisible to thread-safety "
                "analysis — use the src/sync/latch.h wrappers"))

        if NO_TSA_RE.search(code) and name not in NO_TSA_SKIP:
            lo = max(0, i - 1 - PROTOCOL_WINDOW)
            context = lines[lo:i]
            if not any(PROTOCOL_RE.search(c) for c in context):
                findings.append((
                    name, i, "R5",
                    "PLP_NO_THREAD_SAFETY_ANALYSIS without a nearby "
                    "'protocol:' comment naming the lock-free protocol"))


def main() -> int:
    findings = []
    for path in sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cc")):
        lint_file(path, findings)
    for name, line, rule, detail in findings:
        print(f"{name}:{line}: [{rule}] {detail}")
    if findings:
        print(f"\nlint_invariants: {len(findings)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

// Flight recorder: always-on, lock-free event tracing (docs/observability.md).
//
// Every thread that emits an event owns an SPSC ring of fixed-size binary
// slots (timestamp, duration, two u64 args, packed type+site). Writers are
// wait-free: a clock read plus six relaxed/release atomic stores, in the
// CsProfiler discipline (no load-modify-store on shared cachelines), so the
// hot-path cost is bounded and TSan stays clean. Readers (trace export, the
// post-mortem black box) validate each slot with a seqlock generation
// number and simply skip slots a writer is overwriting — tracing never
// blocks the traced.
//
// Two consumers:
//   1. ExportChromeTrace(): chrome://tracing / Perfetto JSON of everything
//      still in the rings (Engine::DumpTrace, PLP_TRACE_PATH).
//   2. DumpBlackBox(fd): async-signal-safe dump of the last N events per
//      thread; installed on fatal signals and fired by debug invariant
//      traps (buffer-pool pin-leak teardown).
//
// Per-site contention statistics are not kept here: CsProfiler's per-thread
// block owns them (ContentionSnapshot in src/sync/cs_profiler.h), and its
// contended paths emit the kLatchWait/kCsWait ring events.
//
// This header is deliberately include-light (no registry.h / latch.h) so
// the sync layer can call into it without an include cycle.
#ifndef PLP_METRICS_FLIGHT_RECORDER_H_
#define PLP_METRICS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/sync/cs_profiler.h"
#include "src/sync/spinlock.h"
#include "src/sync/thread_annotations.h"

namespace plp {

/// What happened. Kept in sync with TraceEventTypeName() and the Chrome
/// trace name/category tables in flight_recorder.cc.
enum class TraceEventType : std::uint16_t {
  kNone = 0,           // empty slot sentinel
  kLatchWait = 1,      // contended page-latch acquire; arg0=wait_ns, arg1=PageClass
  kCsWait = 2,         // contended engine-mutex acquire; arg0=wait_ns, arg1=CsCategory
  kLockWait = 3,       // lock-manager queue wait; arg0=wait_ns, arg1=granted(0/1)
  kWalFsync = 4,       // group-commit fsync; arg0=batch bytes, arg1=lsn
  kBufMissStall = 5,   // buffer-pool miss (disk read on the fix path); arg0=page id
  kEvictWriteback = 6, // eviction stole a dirty frame; arg0=page id
  kPartitionPhase = 7, // rendezvous phase dispatched; arg0=phase idx, arg1=actions
  kCheckpoint = 8,     // fuzzy checkpoint span; arg0=payload bytes
  kRecovery = 9,       // restart recovery span; arg0=redo ops, arg1=undo ops
  kMarker = 10,        // test/diagnostic marker; args free-form
};
inline constexpr std::size_t kNumTraceEventTypes = 11;

const char* TraceEventTypeName(TraceEventType t);

/// One decoded, seqlock-validated ring event (Collect() output).
struct CollectedEvent {
  std::uint64_t ts_ns = 0;   // event start, NowNanos() clock
  std::uint64_t dur_ns = 0;  // 0 for instant events
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  TraceEventType type = TraceEventType::kNone;
  TraceSite site = TraceSite::kUnknown;
  std::uint32_t tid = 0;     // small recorder-assigned thread id
};

/// Process-wide recorder. Threads write through a thread-local ring handle;
/// rings live forever (retired rings are recycled for new threads) so the
/// signal-time reader can walk them without synchronization beyond a
/// push-only list head. Mirrors the CsProfiler singleton shape.
class FlightRecorder {
 public:
  /// Slots per thread ring; power of two. 4096 * 48B = 192KiB per thread.
  static constexpr std::size_t kRingSlots = 4096;

  static FlightRecorder& Global();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends one event to the calling thread's ring (wait-free; drops the
  /// oldest slot on wrap). `ts_ns` is the event start so spans recorded at
  /// completion land at the right place on the timeline.
  static void Emit(TraceEventType type, std::uint64_t ts_ns,
                   std::uint64_t dur_ns, std::uint64_t arg0,
                   std::uint64_t arg1);

  /// Ring switch (PLP_TRACE=0 disables at startup; tests toggle it).
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Minimum contended wait that earns a ring event (CsProfiler's site
  /// stats count every wait). Default 1us, PLP_TRACE_WAIT_NS at startup.
  void SetWaitThresholdNs(std::uint64_t ns) {
    wait_threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  std::uint64_t wait_threshold_ns() const {
    return wait_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Events overwritten before any reader saw them (ring wraps), summed
  /// over all threads. Exported as the `trace.dropped_events` gauge.
  std::uint64_t dropped_events() const {
    return dropped_total_.load(std::memory_order_relaxed);
  }

  /// Decodes every valid slot across all rings. Slots being overwritten
  /// concurrently fail seqlock validation and are skipped, never torn.
  std::vector<CollectedEvent> Collect() const;

  /// Chrome-trace (Perfetto-loadable) JSON of Collect(), one event per
  /// line, microsecond timestamps, per-thread metadata names.
  std::string ExportChromeTraceJson() const;
  Status ExportChromeTrace(const std::string& path) const;

  /// Async-signal-safe: writes the last `per_thread` events of every ring
  /// to `fd` with write(2) only (no malloc, no locks, no stdio). Used by
  /// the fatal-signal handler and the debug pin-leak trap.
  void DumpBlackBox(int fd, std::size_t per_thread = 32) const;

  /// Installs DumpBlackBox-on-fatal-signal handlers (SIGSEGV/BUS/ILL/FPE/
  /// ABRT) once per process. Signals already claimed by a sanitizer or
  /// test harness (non-default disposition) are left alone.
  static void InstallCrashHandlers();

  /// Test-only: clears ring heads and the drop counter. Racy
  /// against concurrent writers by design (same contract as
  /// MetricsRegistry::Reset) — call it quiesced.
  void ResetForTest();

 private:
  friend struct ThreadRingHolder;

  // One ring slot. All fields atomic so concurrent overwrite-during-read
  // is a skipped slot, not a data race. seq follows the seqlock protocol:
  // odd = write in progress, 2*(i+1) = event i committed.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> ts{0};
    std::atomic<std::uint64_t> dur{0};
    std::atomic<std::uint64_t> arg0{0};
    std::atomic<std::uint64_t> arg1{0};
    std::atomic<std::uint64_t> meta{0};  // type | site<<16
  };

  struct ThreadRing {
    Slot slots[kRingSlots];
    /// Next event index for the owning thread (monotonic, not masked).
    std::atomic<std::uint64_t> head{0};
    /// Owning thread still alive? Retired rings are recycled.
    std::atomic<bool> active{false};
    std::uint32_t tid = 0;
    ThreadRing* next = nullptr;  // push-only list, set before publish
  };

  FlightRecorder();

  static ThreadRing* LocalRing();
  ThreadRing* AcquireRing();
  void CollectRing(const ThreadRing& ring, std::size_t max_events,
                   std::vector<CollectedEvent>* out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> wait_threshold_ns_{1000};
  std::atomic<std::uint64_t> dropped_total_{0};

  /// Head of the all-rings list. Readers traverse with one acquire load;
  /// push/recycle serialize on reg_lock_.
  std::atomic<ThreadRing*> all_rings_{nullptr};
  Spinlock reg_lock_;
  std::uint32_t next_tid_ PLP_GUARDED_BY(reg_lock_) = 1;
};

}  // namespace plp

#endif  // PLP_METRICS_FLIGHT_RECORDER_H_

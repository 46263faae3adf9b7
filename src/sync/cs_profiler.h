// Critical-section accounting (Section 2 of the paper).
//
// Every critical section in the storage manager is tagged with the service
// that owns it (lock manager, page latching, buffer pool, ...). Entries and
// contended entries are tallied per thread with no shared-cacheline writes on
// the hot path; a collector aggregates across threads. This reproduces the
// measurement infrastructure behind Figures 1, 2 and 3.
//
// The same per-thread block is the engine's only store of contended-wait
// data: a contended acquire is also charged to the calling thread's
// TraceSite (count, total wait, log2-us histogram, max), and the per-site
// contention ranking is a view over a collected CsCounts. The flight
// recorder only receives the wait as a ring event.
#ifndef PLP_SYNC_CS_PROFILER_H_
#define PLP_SYNC_CS_PROFILER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace plp {

/// Storage-manager service that owns a critical section (Figure 1 legend).
enum class CsCategory : int {
  kLockMgr = 0,
  kPageLatch = 1,
  kBufferPool = 2,
  kMetadata = 3,     // catalog / free-space management
  kLogMgr = 4,
  kXctMgr = 5,
  kMessagePassing = 6,
  kUncategorized = 7,
};
inline constexpr int kNumCsCategories = 8;

const char* CsCategoryName(CsCategory c);

/// Kind of database page a latch protects (Figures 2 and 3 legend).
enum class PageClass : int {
  kIndex = 0,
  kHeap = 1,
  kCatalog = 2,  // metadata and free-space pages
};
inline constexpr int kNumPageClasses = 3;

const char* PageClassName(PageClass c);

/// Callsite attribution for contended latch/mutex waits. The inventory
/// mirrors the R3 lint allowlist (tools/lint_invariants.py): the files
/// allowed to touch raw latches — crabbing descents, SMOs, eviction — are
/// exactly the sites worth telling apart in a contention report. Scopes are
/// cheap (one plain thread_local store each way) and nest.
enum class TraceSite : std::uint16_t {
  kUnknown = 0,
  kBtreeDescent = 1,     // src/index/btree.cc lock-crabbing descent
  kBtreeSmo = 2,         // src/index/btree.cc split/merge/repartition SMO
  kBufferPoolEvict = 3,  // src/buffer/buffer_pool.cc frame steal + unswizzle
  kPageCleaner = 4,      // background write-back (FlushPage from the cleaner)
  kHeapOp = 5,           // src/storage/heap_file.cc record read/write latches
  kPartitionTable = 6,   // src/index/partition_table.cc routing-table pages
  kLockTable = 7,        // src/lock lock-manager buckets
  kCheckpointer = 8,     // Database::Checkpoint page sweep
  kRecoveryReplay = 9,   // restart redo/undo page fixes
};
inline constexpr std::size_t kNumTraceSites = 10;

/// Async-signal-safe (a table lookup): the black box calls it.
const char* TraceSiteName(TraceSite s);

namespace internal {
// Current attribution site for this thread; plain thread_local (never read
// cross-thread), loaded only on already-blocking contended paths.
extern thread_local std::uint16_t t_trace_site;
}  // namespace internal

/// RAII scope tagging contended waits on this thread with a callsite.
class TraceSiteScope {
 public:
  explicit TraceSiteScope(TraceSite site)
      : prev_(internal::t_trace_site) {
    internal::t_trace_site = static_cast<std::uint16_t>(site);
  }
  ~TraceSiteScope() { internal::t_trace_site = prev_; }
  TraceSiteScope(const TraceSiteScope&) = delete;
  TraceSiteScope& operator=(const TraceSiteScope&) = delete;

 private:
  std::uint16_t prev_;
};

/// Log2 buckets of per-site wait microseconds (40 cover ~13 days).
inline constexpr std::size_t kSiteWaitBuckets = 40;

/// Contended waits charged to one TraceSite.
struct SiteWaits {
  std::uint64_t count = 0;
  std::uint64_t wait_ns = 0;
  /// Longest single wait. Cumulative: a window delta keeps the later max.
  std::uint64_t max_wait_ns = 0;
  std::array<std::uint64_t, kSiteWaitBuckets> wait_us_buckets{};
};

/// Aggregated counters. Plain data; returned by CsProfiler::Collect().
struct CsCounts {
  std::array<std::uint64_t, kNumCsCategories> entries{};
  std::array<std::uint64_t, kNumCsCategories> contended{};
  /// Nanoseconds spent blocked waiting to enter, per category.
  std::array<std::uint64_t, kNumCsCategories> wait_ns{};
  std::array<std::uint64_t, kNumPageClasses> latches{};
  std::array<std::uint64_t, kNumPageClasses> latches_contended{};
  /// Nanoseconds spent blocked on page latches, per page class
  /// ("Idx Latch Cont." / "Heap Latch Cont." in Figures 6 and 7).
  std::array<std::uint64_t, kNumPageClasses> latch_wait_ns{};
  /// Contended waits per TraceSite (latches, tracked mutexes, lock table).
  std::array<SiteWaits, kNumTraceSites> sites{};

  std::uint64_t TotalEntries() const;
  std::uint64_t TotalContended() const;
  std::uint64_t TotalLatches() const;

  CsCounts& operator+=(const CsCounts& other);
  /// Counter-wise difference (for before/after measurement windows).
  /// Per-site max_wait_ns is not windowable and keeps this side's value.
  CsCounts operator-(const CsCounts& other) const;
};

/// One row of the per-site contention ranking.
struct ContentionEntry {
  TraceSite site = TraceSite::kUnknown;
  std::uint64_t count = 0;
  std::uint64_t total_wait_ns = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

/// Per-site contended-wait ranking of `counts`, sorted by total wait
/// descending; sites with zero waits are omitted. Percentiles are log2
/// bucket ceilings clamped to the site's max (registry convention).
std::vector<ContentionEntry> ContentionSnapshot(const CsCounts& counts);

/// Human-readable form of ContentionSnapshot(counts).
std::string ContentionReportText(const CsCounts& counts);

/// Process-wide profiler. Threads record into thread-local state registered
/// with the singleton; Collect() sums live threads plus retired ones.
class CsProfiler {
 public:
  static CsProfiler& Global();

  CsProfiler(const CsProfiler&) = delete;
  CsProfiler& operator=(const CsProfiler&) = delete;

  /// Records one critical-section entry on the calling thread. `contended`
  /// means the acquirer had to wait (for `wait_ns` nanoseconds): the wait
  /// is also charged to the thread's current TraceSite and, when it clears
  /// FlightRecorder::wait_threshold_ns(), emitted as a kCsWait ring event.
  static void Record(CsCategory category, bool contended,
                     std::uint64_t wait_ns = 0);

  /// Charges `wait_ns` of blocking that is not a critical-section entry
  /// (a lock-conflict wait on the lock manager's condition variable) to
  /// `category`'s wait time; entries and contended counts stay unchanged.
  static void RecordWait(CsCategory category, std::uint64_t wait_ns);

  /// Records a page-latch acquisition (also counts as a kPageLatch entry);
  /// a contended one is charged like Record's and emitted as kLatchWait.
  static void RecordLatch(PageClass page_class, bool contended,
                          std::uint64_t wait_ns = 0);

  /// Sums counters across all threads that ever recorded.
  CsCounts Collect();

  /// Zeroes all counters (live and retired), site waits included. Call
  /// between experiments.
  void Reset();

  /// Globally enable/disable recording (avoids overhead when not measuring).
  /// Disabled, contended waits earn no site stats and no ring events.
  static void SetEnabled(bool enabled);
  static bool enabled();

 private:
  CsProfiler() = default;

  struct ThreadState;
  static ThreadState& Local();

  friend struct ThreadStateHolder;
};

}  // namespace plp

#endif  // PLP_SYNC_CS_PROFILER_H_

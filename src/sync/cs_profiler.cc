#include "src/sync/cs_profiler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <vector>

#include "src/common/clock.h"
#include "src/metrics/flight_recorder.h"

namespace plp {

namespace internal {
thread_local std::uint16_t t_trace_site =
    static_cast<std::uint16_t>(TraceSite::kUnknown);
}  // namespace internal

const char* CsCategoryName(CsCategory c) {
  switch (c) {
    case CsCategory::kLockMgr: return "Lock mgr";
    case CsCategory::kPageLatch: return "Page Latches";
    case CsCategory::kBufferPool: return "Bpool";
    case CsCategory::kMetadata: return "Metadata";
    case CsCategory::kLogMgr: return "Log mgr";
    case CsCategory::kXctMgr: return "Xct mgr";
    case CsCategory::kMessagePassing: return "Message passing";
    case CsCategory::kUncategorized: return "Uncategorized";
  }
  return "?";
}

const char* PageClassName(PageClass c) {
  switch (c) {
    case PageClass::kIndex: return "INDEX";
    case PageClass::kHeap: return "HEAP";
    case PageClass::kCatalog: return "CATALOG/SPACE";
  }
  return "?";
}

namespace {
constexpr const char* kSiteNames[kNumTraceSites] = {
    "unknown",         "btree_descent",  "btree_smo",
    "buffer_pool_evict", "page_cleaner", "heap_op",
    "partition_table", "lock_table",     "checkpointer",
    "recovery_replay",
};
}  // namespace

const char* TraceSiteName(TraceSite s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kNumTraceSites ? kSiteNames[i] : "invalid";
}

std::uint64_t CsCounts::TotalEntries() const {
  std::uint64_t t = 0;
  for (auto v : entries) t += v;
  return t;
}

std::uint64_t CsCounts::TotalContended() const {
  std::uint64_t t = 0;
  for (auto v : contended) t += v;
  return t;
}

std::uint64_t CsCounts::TotalLatches() const {
  std::uint64_t t = 0;
  for (auto v : latches) t += v;
  return t;
}

CsCounts& CsCounts::operator+=(const CsCounts& other) {
  for (int i = 0; i < kNumCsCategories; ++i) {
    entries[i] += other.entries[i];
    contended[i] += other.contended[i];
    wait_ns[i] += other.wait_ns[i];
  }
  for (int i = 0; i < kNumPageClasses; ++i) {
    latches[i] += other.latches[i];
    latches_contended[i] += other.latches_contended[i];
    latch_wait_ns[i] += other.latch_wait_ns[i];
  }
  for (std::size_t i = 0; i < kNumTraceSites; ++i) {
    SiteWaits& s = sites[i];
    const SiteWaits& o = other.sites[i];
    s.count += o.count;
    s.wait_ns += o.wait_ns;
    s.max_wait_ns = std::max(s.max_wait_ns, o.max_wait_ns);
    for (std::size_t b = 0; b < kSiteWaitBuckets; ++b) {
      s.wait_us_buckets[b] += o.wait_us_buckets[b];
    }
  }
  return *this;
}

CsCounts CsCounts::operator-(const CsCounts& other) const {
  CsCounts out;
  for (int i = 0; i < kNumCsCategories; ++i) {
    out.entries[i] = entries[i] - other.entries[i];
    out.contended[i] = contended[i] - other.contended[i];
    out.wait_ns[i] = wait_ns[i] - other.wait_ns[i];
  }
  for (int i = 0; i < kNumPageClasses; ++i) {
    out.latches[i] = latches[i] - other.latches[i];
    out.latches_contended[i] = latches_contended[i] - other.latches_contended[i];
    out.latch_wait_ns[i] = latch_wait_ns[i] - other.latch_wait_ns[i];
  }
  for (std::size_t i = 0; i < kNumTraceSites; ++i) {
    SiteWaits& d = out.sites[i];
    const SiteWaits& s = sites[i];
    const SiteWaits& o = other.sites[i];
    d.count = s.count - o.count;
    d.wait_ns = s.wait_ns - o.wait_ns;
    d.max_wait_ns = s.max_wait_ns;
    for (std::size_t b = 0; b < kSiteWaitBuckets; ++b) {
      d.wait_us_buckets[b] = s.wait_us_buckets[b] - o.wait_us_buckets[b];
    }
  }
  return out;
}

std::vector<ContentionEntry> ContentionSnapshot(const CsCounts& counts) {
  std::vector<ContentionEntry> out;
  for (std::size_t i = 0; i < kNumTraceSites; ++i) {
    const SiteWaits& s = counts.sites[i];
    if (s.count == 0) continue;
    ContentionEntry e;
    e.site = static_cast<TraceSite>(i);
    e.count = s.count;
    e.total_wait_ns = s.wait_ns;
    e.max_us = s.max_wait_ns / 1000;
    std::uint64_t total = 0;
    for (std::uint64_t b : s.wait_us_buckets) total += b;
    auto percentile = [&](double p) -> std::uint64_t {
      const auto rank = static_cast<std::uint64_t>(
          p * static_cast<double>(total) + 0.5);
      std::uint64_t seen = 0;
      for (std::size_t b = 0; b < kSiteWaitBuckets; ++b) {
        seen += s.wait_us_buckets[b];
        if (seen >= rank && s.wait_us_buckets[b] != 0) {
          const std::uint64_t ceiling = b >= 1 ? ((1ull << b) - 1) : 0;
          return std::min(ceiling, e.max_us);
        }
      }
      return e.max_us;
    };
    e.p50_us = percentile(0.50);
    e.p99_us = percentile(0.99);
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const ContentionEntry& a, const ContentionEntry& b) {
              return a.total_wait_ns > b.total_wait_ns;
            });
  return out;
}

std::string ContentionReportText(const CsCounts& counts) {
  const std::vector<ContentionEntry> entries = ContentionSnapshot(counts);
  if (entries.empty()) return "";
  std::string text = "-- contended latch/mutex sites --\n";
  char line[160];
  for (const ContentionEntry& e : entries) {
    std::snprintf(line, sizeof(line),
                  "  %-18s waits=%-8" PRIu64 " total=%" PRIu64
                  "us p50=%" PRIu64 "us p99=%" PRIu64 "us max=%" PRIu64
                  "us\n",
                  TraceSiteName(e.site), e.count, e.total_wait_ns / 1000,
                  e.p50_us, e.p99_us, e.max_us);
    text += line;
  }
  return text;
}

namespace {
std::atomic<bool> g_enabled{true};

struct AtomicSiteWaits {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> wait_ns{0};
  std::atomic<std::uint64_t> max_wait_ns{0};
  std::array<std::atomic<std::uint64_t>, kSiteWaitBuckets> wait_us_buckets{};
};

/// Thread-local counter block mirroring CsCounts with relaxed atomics.
struct AtomicCounts {
  std::array<std::atomic<std::uint64_t>, kNumCsCategories> entries{};
  std::array<std::atomic<std::uint64_t>, kNumCsCategories> contended{};
  std::array<std::atomic<std::uint64_t>, kNumCsCategories> wait_ns{};
  std::array<std::atomic<std::uint64_t>, kNumPageClasses> latches{};
  std::array<std::atomic<std::uint64_t>, kNumPageClasses> latches_contended{};
  std::array<std::atomic<std::uint64_t>, kNumPageClasses> latch_wait_ns{};
  std::array<AtomicSiteWaits, kNumTraceSites> sites{};

  CsCounts Snapshot() const {
    CsCounts out;
    for (int i = 0; i < kNumCsCategories; ++i) {
      out.entries[i] = entries[i].load(std::memory_order_relaxed);
      out.contended[i] = contended[i].load(std::memory_order_relaxed);
      out.wait_ns[i] = wait_ns[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kNumPageClasses; ++i) {
      out.latches[i] = latches[i].load(std::memory_order_relaxed);
      out.latches_contended[i] =
          latches_contended[i].load(std::memory_order_relaxed);
      out.latch_wait_ns[i] = latch_wait_ns[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kNumTraceSites; ++i) {
      const AtomicSiteWaits& a = sites[i];
      SiteWaits& s = out.sites[i];
      s.count = a.count.load(std::memory_order_relaxed);
      s.wait_ns = a.wait_ns.load(std::memory_order_relaxed);
      s.max_wait_ns = a.max_wait_ns.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kSiteWaitBuckets; ++b) {
        s.wait_us_buckets[b] =
            a.wait_us_buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  void Zero() {
    for (int i = 0; i < kNumCsCategories; ++i) {
      entries[i].store(0, std::memory_order_relaxed);
      contended[i].store(0, std::memory_order_relaxed);
      wait_ns[i].store(0, std::memory_order_relaxed);
    }
    for (int i = 0; i < kNumPageClasses; ++i) {
      latches[i].store(0, std::memory_order_relaxed);
      latches_contended[i].store(0, std::memory_order_relaxed);
      latch_wait_ns[i].store(0, std::memory_order_relaxed);
    }
    for (AtomicSiteWaits& a : sites) {
      a.count.store(0, std::memory_order_relaxed);
      a.wait_ns.store(0, std::memory_order_relaxed);
      a.max_wait_ns.store(0, std::memory_order_relaxed);
      for (auto& b : a.wait_us_buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

inline void Bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  // A real RMW: Reset() may zero a live thread's counter concurrently,
  // and a load+store pair would resurrect the pre-reset value.
  c.fetch_add(by, std::memory_order_relaxed);
}

/// Contended path only: charges the wait to the thread's current site.
void RecordSiteWait(AtomicCounts& c, std::uint64_t wait_ns) {
  const std::uint16_t site = internal::t_trace_site;
  AtomicSiteWaits& s = c.sites[site < kNumTraceSites ? site : 0];
  Bump(s.count);
  Bump(s.wait_ns, wait_ns);
  const auto bucket = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::bit_width(wait_ns / 1000), kSiteWaitBuckets - 1));
  Bump(s.wait_us_buckets[bucket]);
  // CAS rather than load+store for the same reason as Bump; only the
  // owning thread and Reset() ever write it, so the loop rarely retries.
  std::uint64_t prev = s.max_wait_ns.load(std::memory_order_relaxed);
  while (prev < wait_ns && !s.max_wait_ns.compare_exchange_weak(
                               prev, wait_ns, std::memory_order_relaxed)) {
  }
}

/// Contended path only: a ring event for waits above the threshold, with
/// the start derived as now - wait.
void TraceWait(TraceEventType type, std::uint64_t wait_ns,
               std::uint64_t what) {
  if (wait_ns < FlightRecorder::Global().wait_threshold_ns()) return;
  FlightRecorder::Emit(type, NowNanos() - wait_ns, wait_ns, wait_ns, what);
}

struct Registry {
  std::mutex mu;
  std::vector<AtomicCounts*> live;
  CsCounts retired;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}
}  // namespace

// Per-thread counters are relaxed atomics: the owning thread is the only
// writer (plain increments in effect), but Collect()/Reset() touch them
// from the collector thread, so the accesses must be data-race free for
// the ThreadSanitizer CI job that gates the async engine machinery.
struct CsProfiler::ThreadState {
  AtomicCounts counts;

  ThreadState() {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> g(r.mu);
    r.live.push_back(&counts);
  }
  ~ThreadState() {
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> g(r.mu);
    r.retired += counts.Snapshot();
    for (auto it = r.live.begin(); it != r.live.end(); ++it) {
      if (*it == &counts) {
        r.live.erase(it);
        break;
      }
    }
  }
};

CsProfiler& CsProfiler::Global() {
  static CsProfiler* p = new CsProfiler();
  return *p;
}

CsProfiler::ThreadState& CsProfiler::Local() {
  thread_local ThreadState state;
  return state;
}

void CsProfiler::Record(CsCategory category, bool contended,
                        std::uint64_t wait_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  AtomicCounts& c = Local().counts;
  Bump(c.entries[static_cast<int>(category)]);
  if (contended) {
    Bump(c.contended[static_cast<int>(category)]);
    Bump(c.wait_ns[static_cast<int>(category)], wait_ns);
    RecordSiteWait(c, wait_ns);
    TraceWait(TraceEventType::kCsWait, wait_ns,
              static_cast<std::uint64_t>(category));
  }
}

void CsProfiler::RecordLatch(PageClass page_class, bool contended,
                             std::uint64_t wait_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  AtomicCounts& c = Local().counts;
  Bump(c.entries[static_cast<int>(CsCategory::kPageLatch)]);
  Bump(c.latches[static_cast<int>(page_class)]);
  if (contended) {
    Bump(c.contended[static_cast<int>(CsCategory::kPageLatch)]);
    Bump(c.wait_ns[static_cast<int>(CsCategory::kPageLatch)], wait_ns);
    Bump(c.latches_contended[static_cast<int>(page_class)]);
    Bump(c.latch_wait_ns[static_cast<int>(page_class)], wait_ns);
    RecordSiteWait(c, wait_ns);
    TraceWait(TraceEventType::kLatchWait, wait_ns,
              static_cast<std::uint64_t>(page_class));
  }
}

CsCounts CsProfiler::Collect() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> g(r.mu);
  CsCounts out = r.retired;
  for (AtomicCounts* c : r.live) out += c->Snapshot();
  return out;
}

void CsProfiler::Reset() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> g(r.mu);
  r.retired = CsCounts{};
  for (AtomicCounts* c : r.live) c->Zero();
}

void CsProfiler::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool CsProfiler::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

}  // namespace plp

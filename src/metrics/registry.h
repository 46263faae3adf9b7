// Engine-wide metrics registry: named counters, gauges, and log-bucketed
// latency histograms behind lock-free record paths.
//
// The concurrency discipline follows CsProfiler: every mutation on a hot
// path is a single relaxed fetch_add on a cache-local atomic cell, so the
// instrumentation is TSan-clean and costs one uncontended RMW. Readers
// (Snapshot/Reset) sum or zero the cells with relaxed loads/stores; because
// writers use fetch_add rather than load+store pairs, a concurrent Reset
// can never resurrect pre-reset values — at worst a snapshot taken mid-add
// misses in-flight increments, which the next snapshot picks up.
//
// Registration (counter()/gauge()/histogram() lookups) takes a mutex and is
// expected to happen once at subsystem construction; subsystems cache the
// returned pointers, which stay valid for the registry's lifetime.
//
// Subsystems constructed without a registry (standalone unit tests) are
// handed metrics from MetricsRegistry::Scratch(), a process-wide sink that
// is never snapshotted: the instrumented code keeps its unconditional
// relaxed-add path with no per-record null checks or branches.
#ifndef PLP_METRICS_REGISTRY_H_
#define PLP_METRICS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

namespace internal {
/// Stable small integer for the calling thread, used to spread writers
/// across counter cells. Threads are assigned round-robin on first use, so
/// the common bench shapes (a handful of workers) land on distinct cells.
std::size_t MetricThreadSlot();
}  // namespace internal

/// Monotonic counter, sharded across cache-line-sized cells.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  void Add(std::uint64_t by) {
    cells_[internal::MetricThreadSlot() % kCells].v.fetch_add(
        by, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }
  void Reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kCells];
};

/// Point-in-time signed value. Set() is for single-updater gauges (a probe
/// publishing its last window); Add()/Sub() keep multi-updater level gauges
/// reset-safe the same way Counter is.
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t by) { value_.fetch_add(by, std::memory_order_relaxed); }
  void Sub(std::int64_t by) { Add(-by); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2 bucket count shared by Histogram and HistogramSummary: bucket i
/// holds values of bit-width i, so 65 buckets cover the full uint64 range.
inline constexpr std::size_t kHistogramBuckets = 65;

struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  /// Percentile estimates: upper bound of the log2 bucket the rank lands
  /// in, clamped to the observed max. Exact to within 2x, which is all a
  /// latency distribution needs.
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  /// Merged bucket counts, carried so summaries can be subtracted
  /// (StatsSnapshot::DeltaSince) with percentiles recomputed for the
  /// window. Not serialized by ToText/ToJson.
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Bucket-wise difference `*this - base` with percentiles recomputed
  /// from the window's buckets. `max` is approximated as the smaller of
  /// this->max and the highest nonzero delta bucket's ceiling (the true
  /// window max is not recoverable from cumulative state).
  HistogramSummary DeltaSince(const HistogramSummary& base) const;
};

/// Log2-bucketed histogram (64 buckets cover the full uint64 range),
/// striped so concurrent recorders touch disjoint cache lines. Record is
/// three relaxed fetch_adds plus a CAS loop for the max (which almost
/// always short-circuits after one relaxed load).
class Histogram {
 public:
  static constexpr std::size_t kStripes = 8;
  static constexpr std::size_t kBuckets = kHistogramBuckets;

  void Record(std::uint64_t value);
  HistogramSummary Collect() const;
  void Reset();

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> buckets[kBuckets];
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> max{0};
  };
  Stripe stripes_[kStripes];
};

/// Structured result of MetricsRegistry::Snapshot(): three sorted name ->
/// value maps plus text/JSON serializers shared by Engine::GetStats()
/// consumers, the benches, and the background reporter.
struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSummary> histograms;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::int64_t gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
  const HistogramSummary* histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }

  /// Exact per-window deltas: counters and histogram buckets subtracted
  /// (clamped at zero if `base` is newer or a Reset intervened — the
  /// current cumulative value is reported then), gauges passed through
  /// as levels, histogram percentiles recomputed from the window's
  /// buckets. Replaces the Reset-between-windows pattern, which races
  /// in-flight increments by design.
  StatsSnapshot DeltaSince(const StatsSnapshot& base) const;

  /// Human-readable table, one metric per line, with a ranked
  /// "contended latch sites" section when contention.* gauges (published
  /// by the Database gauge provider from CsProfiler's per-site counts)
  /// are present.
  std::string ToText() const;
  /// Single JSON object: counters/gauges as numbers, histograms as
  /// {"count","sum","max","p50","p95","p99"} objects. Keys are sorted.
  std::string ToJson() const;
};

/// Sink handed to gauge providers at snapshot time.
using GaugeSink =
    std::function<void(const std::string& name, std::int64_t value)>;
/// Callback producing dynamically named gauges (per-partition loads, queue
/// depths) evaluated at each Snapshot(). Must not re-enter the registry.
using GaugeProvider = std::function<void(const GaugeSink&)>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get. Returned pointers are stable for the registry's
  /// lifetime; cache them at construction, never on a hot path.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Dynamic gauges: `fn` runs inside Snapshot() and emits name/value
  /// pairs. `token` identifies the registration for Unregister (use the
  /// owning object's address). Providers must outlive their registration.
  void RegisterGaugeProvider(const void* token, GaugeProvider fn);
  void UnregisterGaugeProvider(const void* token);

  StatsSnapshot Snapshot() const;
  /// Zeroes counters, gauges, and histograms (provider-backed gauges are
  /// unaffected: they re-evaluate at the next snapshot). Safe to run while
  /// writers are recording; see the header comment for the guarantee.
  void Reset();

  /// Process-wide null sink for subsystems constructed without a registry;
  /// never snapshotted, so recording into it is pure (cheap) overhead.
  static MetricsRegistry* Scratch();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PLP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ PLP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PLP_GUARDED_BY(mu_);
  std::vector<std::pair<const void*, GaugeProvider>> providers_
      PLP_GUARDED_BY(mu_);
};

}  // namespace plp

#endif  // PLP_METRICS_REGISTRY_H_

// Tests for the metrics layer: the engine-wide registry plus the older
// time-breakdown view over CsProfiler deltas.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/metrics/registry.h"
#include "src/metrics/time_breakdown.h"

namespace plp {
namespace {

TEST(TimeBreakdownTest, CalibrationIsPositiveAndStable) {
  const double a = CalibratedLatchCostNs();
  const double b = CalibratedLatchCostNs();
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, b);  // memoized
  EXPECT_LT(a, 10000.0);  // an uncontended latch is well under 10us
}

TEST(TimeBreakdownTest, ZeroTransactionsGiveEmptyBreakdown) {
  CsCounts delta;
  const TimeBreakdown b = MakeTimeBreakdown(delta, 0, 1000000);
  EXPECT_EQ(b.total_us, 0.0);
}

TEST(TimeBreakdownTest, ComponentsAttributeCorrectly) {
  CsCounts delta;
  delta.latch_wait_ns[static_cast<int>(PageClass::kIndex)] = 4'000'000;
  delta.latch_wait_ns[static_cast<int>(PageClass::kHeap)] = 2'000'000;
  delta.wait_ns[static_cast<int>(CsCategory::kPageLatch)] = 6'000'000;
  delta.wait_ns[static_cast<int>(CsCategory::kLockMgr)] = 1'000'000;
  const TimeBreakdown b = MakeTimeBreakdown(delta, 1000, 100'000'000);
  EXPECT_DOUBLE_EQ(b.total_us, 100.0);
  EXPECT_DOUBLE_EQ(b.idx_latch_wait_us, 4.0);
  EXPECT_DOUBLE_EQ(b.heap_latch_wait_us, 2.0);
  EXPECT_DOUBLE_EQ(b.lock_wait_us, 1.0);
  EXPECT_DOUBLE_EQ(b.smo_wait_us, 0.0);  // fully classed latch waits
  EXPECT_GT(b.other_us, 0.0);
}

TEST(TimeBreakdownTest, SmoWaitIsUnclassedLatchWait) {
  CsCounts delta;
  // 3ms of page-latch-category waiting, only 1ms attributable to index
  // pages: the remaining 2ms is SMO-mutex serialization.
  delta.wait_ns[static_cast<int>(CsCategory::kPageLatch)] = 3'000'000;
  delta.latch_wait_ns[static_cast<int>(PageClass::kIndex)] = 1'000'000;
  const TimeBreakdown b = MakeTimeBreakdown(delta, 1000, 50'000'000);
  EXPECT_DOUBLE_EQ(b.idx_latch_wait_us, 1.0);
  EXPECT_DOUBLE_EQ(b.smo_wait_us, 2.0);
}

TEST(TimeBreakdownTest, LatchingOverheadScalesWithCount) {
  CsCounts delta;
  delta.latches[static_cast<int>(PageClass::kIndex)] = 10000;
  const TimeBreakdown small = MakeTimeBreakdown(delta, 1000, 100'000'000);
  delta.latches[static_cast<int>(PageClass::kIndex)] = 20000;
  const TimeBreakdown big = MakeTimeBreakdown(delta, 1000, 100'000'000);
  EXPECT_NEAR(big.latching_us, 2 * small.latching_us, 1e-9);
}

TEST(TimeBreakdownTest, FormatContainsAllColumns) {
  const TimeBreakdown b;
  const std::string row = FormatBreakdownRow("TestRow", b);
  for (const char* col : {"TestRow", "total", "idx-wait", "heap-wait",
                          "latching", "lock-wait", "smo-wait", "other"}) {
    EXPECT_NE(row.find(col), std::string::npos) << col;
  }
}

// --- MetricsRegistry ------------------------------------------------------

TEST(MetricsRegistryTest, CounterNamesAreStableCreateOrGet) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(registry.Snapshot().counter("x"), 3u);
  EXPECT_EQ(registry.Snapshot().counter("missing"), 0u);
}

TEST(MetricsRegistryTest, ConcurrentWritersLoseNothing) {
  MetricsRegistry registry;
  Counter* c = registry.counter("hammer");
  Histogram* h = registry.histogram("lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::atomic<bool> stop{false};
  // A reader snapshotting concurrently must see monotonically
  // non-decreasing counts, and never more than the eventual total.
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const StatsSnapshot snap = registry.Snapshot();
      const std::uint64_t now = snap.counter("hammer");
      EXPECT_GE(now, last);
      EXPECT_LE(now, static_cast<std::uint64_t>(kThreads) * kPerThread);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<std::uint64_t>(t) * 100 + 1);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("hammer"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramSummary* lat = snap.histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(lat->max, 701u);
}

TEST(MetricsRegistryTest, ResetDuringWritesNeverResurrects) {
  MetricsRegistry registry;
  Counter* c = registry.counter("reset_target");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c->Increment();
    });
  }
  // Racing resets: because writers use fetch_add (never load+store), a
  // reset can only miss in-flight increments, never bring old ones back.
  for (int i = 0; i < 200; ++i) registry.Reset();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : writers) t.join();
  // All writers stopped: one final reset must stick at exactly zero.
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  c->Add(7);
  EXPECT_EQ(registry.Snapshot().counter("reset_target"), 7u);
}

TEST(MetricsRegistryTest, HistogramPercentilesBracketValues) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("h");
  // 90 fast ops at ~100us, 10 slow at ~6000us.
  for (int i = 0; i < 90; ++i) h->Record(100);
  for (int i = 0; i < 10; ++i) h->Record(6000);
  const HistogramSummary s = h->Collect();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 90u * 100 + 10u * 6000);
  EXPECT_EQ(s.max, 6000u);
  // Log2 buckets: estimates are upper bounds of the value's bucket,
  // clamped to max — p50 lands in [100, 200), p99 at the max.
  EXPECT_GE(s.p50, 100u);
  EXPECT_LT(s.p50, 256u);
  EXPECT_EQ(s.p99, 6000u);
  EXPECT_GE(s.p95, s.p50);
  EXPECT_NEAR(s.mean(), 690.0, 1e-9);
}

TEST(MetricsRegistryTest, GaugeProvidersEvaluateAtSnapshot) {
  MetricsRegistry registry;
  int calls = 0;
  registry.RegisterGaugeProvider(&calls, [&calls](const GaugeSink& sink) {
    ++calls;
    sink("dynamic.value", 41 + calls);
  });
  EXPECT_EQ(registry.Snapshot().gauge("dynamic.value"), 42);
  EXPECT_EQ(registry.Snapshot().gauge("dynamic.value"), 43);
  registry.UnregisterGaugeProvider(&calls);
  EXPECT_EQ(registry.Snapshot().gauge("dynamic.value"), 0);
  EXPECT_EQ(calls, 2);
}

TEST(MetricsRegistryTest, SerializersCoverAllMetricKinds) {
  MetricsRegistry registry;
  registry.counter("c.one")->Add(5);
  registry.gauge("g.level")->Set(-3);
  registry.histogram("h.lat_us")->Record(250);
  const StatsSnapshot snap = registry.Snapshot();
  const std::string text = snap.ToText();
  for (const char* needle : {"c.one", "g.level", "h.lat_us"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"c.one\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"g.level\": -3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistryTest, ScratchIsANullSinkThatNeverAliases) {
  MetricsRegistry* scratch = MetricsRegistry::Scratch();
  ASSERT_NE(scratch, nullptr);
  EXPECT_EQ(scratch, MetricsRegistry::Scratch());
  // Recording into scratch is safe and side-effect free for real
  // registries.
  scratch->counter("anything")->Increment();
  MetricsRegistry real;
  EXPECT_EQ(real.Snapshot().counter("anything"), 0u);
}

TEST(StatsSnapshotTest, DeltaSinceSubtractsCounters) {
  MetricsRegistry registry;
  Counter* c = registry.counter("txn.commits");
  c->Add(100);
  const StatsSnapshot base = registry.Snapshot();
  c->Add(42);
  registry.gauge("admission.inflight")->Set(7);
  const StatsSnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counter("txn.commits"), 42u);
  // Gauges are point-in-time: the delta carries the current value.
  EXPECT_EQ(delta.gauge("admission.inflight"), 7);
}

TEST(StatsSnapshotTest, DeltaSinceClampsAfterReset) {
  // A Reset() between the baseline and the later snapshot would make the
  // subtraction go negative; DeltaSince clamps to the current value
  // instead of wrapping to a huge unsigned number.
  MetricsRegistry registry;
  Counter* c = registry.counter("txn.commits");
  c->Add(100);
  const StatsSnapshot base = registry.Snapshot();
  registry.Reset();
  c->Add(5);
  const StatsSnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counter("txn.commits"), 5u);
}

TEST(StatsSnapshotTest, DeltaSinceWindowsHistograms) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("log.fsync_us");
  // Load phase: a thousand fast syncs that a window report must exclude.
  for (int i = 0; i < 1000; ++i) h->Record(2);
  const StatsSnapshot base = registry.Snapshot();
  // Measurement window: a hundred slow ones.
  for (int i = 0; i < 100; ++i) h->Record(5000);
  const StatsSnapshot delta = registry.Snapshot().DeltaSince(base);
  const HistogramSummary* s = delta.histogram("log.fsync_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 100u);
  EXPECT_EQ(s->sum, 100u * 5000u);
  // Percentiles recompute over the window's buckets alone: every sample
  // in the window was 5000us, so p50 must land in its bucket, far above
  // the load phase's 2us floor.
  EXPECT_GE(s->p50, 4096u);
  EXPECT_GE(s->max, 5000u);
  // The cumulative snapshot still sees everything.
  const HistogramSummary* cumulative =
      registry.Snapshot().histogram("log.fsync_us");
  EXPECT_EQ(cumulative->count, 1100u);
}

TEST(StatsSnapshotTest, DeltaSinceEmptyWindowIsZero) {
  MetricsRegistry registry;
  registry.histogram("log.fsync_us")->Record(300);
  registry.counter("txn.commits")->Add(9);
  const StatsSnapshot base = registry.Snapshot();
  const StatsSnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counter("txn.commits"), 0u);
  const HistogramSummary* s = delta.histogram("log.fsync_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 0u);
  EXPECT_EQ(s->sum, 0u);
  EXPECT_EQ(s->max, 0u);
  EXPECT_EQ(s->p99, 0u);
}

}  // namespace
}  // namespace plp

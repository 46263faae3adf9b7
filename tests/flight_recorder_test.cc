// Tests for the flight recorder: ring wraparound accounting, seqlock
// torn-read rejection under concurrent collection (the TSan stress), the
// Chrome-trace export shape, contention attribution, and the
// async-signal-safe black-box dump.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/metrics/flight_recorder.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"

namespace plp {
namespace {

std::uint64_t CountMarkers(const std::vector<CollectedEvent>& events) {
  std::uint64_t n = 0;
  for (const CollectedEvent& ev : events) {
    if (ev.type == TraceEventType::kMarker) ++n;
  }
  return n;
}

TEST(FlightRecorderTest, EmitThenCollectRoundTrips) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  const std::uint64_t t0 = NowNanos();
  FlightRecorder::Emit(TraceEventType::kMarker, t0, 123, 7, 9);
  const std::vector<CollectedEvent> events = fr.Collect();
  ASSERT_EQ(CountMarkers(events), 1u);
  for (const CollectedEvent& ev : events) {
    if (ev.type != TraceEventType::kMarker) continue;
    EXPECT_EQ(ev.ts_ns, t0);
    EXPECT_EQ(ev.dur_ns, 123u);
    EXPECT_EQ(ev.arg0, 7u);
    EXPECT_EQ(ev.arg1, 9u);
    EXPECT_NE(ev.tid, 0u);
  }
}

TEST(FlightRecorderTest, DisabledRecorderEmitsNothing) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  fr.SetEnabled(false);
  FlightRecorder::Emit(TraceEventType::kMarker, NowNanos(), 0, 1, 2);
  EXPECT_EQ(CountMarkers(fr.Collect()), 0u);
  fr.SetEnabled(true);
}

TEST(FlightRecorderTest, WraparoundKeepsNewestAndCountsDrops) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  constexpr std::uint64_t kExtra = 100;
  const std::uint64_t total = FlightRecorder::kRingSlots + kExtra;
  for (std::uint64_t i = 0; i < total; ++i) {
    FlightRecorder::Emit(TraceEventType::kMarker, NowNanos(), 0, i, 0);
  }
  const std::vector<CollectedEvent> events = fr.Collect();
  // Exactly one ring's worth survives; the overwritten ones are counted.
  EXPECT_EQ(CountMarkers(events), FlightRecorder::kRingSlots);
  EXPECT_GE(fr.dropped_events(), kExtra);
  // What survives is the newest window: every arg0 in [kExtra, total).
  std::uint64_t min_arg = total;
  for (const CollectedEvent& ev : events) {
    if (ev.type == TraceEventType::kMarker) {
      min_arg = std::min(min_arg, ev.arg0);
    }
  }
  EXPECT_EQ(min_arg, kExtra);
}

// The seqlock guarantee: a reader racing a wrapping writer never observes a
// torn slot — it either gets a consistent event or skips it. Markers carry
// arg1 = ~arg0 so any mixed-generation read is detectable. Run under TSan
// (build-tsan) this is also the data-race proof for the relaxed protocol.
TEST(FlightRecorderTest, CollectUnderConcurrentWrapIsNeverTorn) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      FlightRecorder::Emit(TraceEventType::kMarker, NowNanos(), i, i, ~i);
      ++i;
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  std::uint64_t validated = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const CollectedEvent& ev : fr.Collect()) {
      if (ev.type != TraceEventType::kMarker) continue;
      ASSERT_EQ(ev.arg1, ~ev.arg0)
          << "torn read: arg0=" << ev.arg0 << " arg1=" << ev.arg1;
      ASSERT_EQ(ev.dur_ns, ev.arg0);
      ++validated;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(validated, 0u);
}

TEST(FlightRecorderTest, ChromeTraceExportShape) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  const std::uint64_t t0 = NowNanos();
  FlightRecorder::Emit(TraceEventType::kLatchWait, t0, 5000, 5000,
                       static_cast<std::uint64_t>(PageClass::kIndex));
  FlightRecorder::Emit(TraceEventType::kWalFsync, t0 + 10000, 2000, 4096, 77);
  FlightRecorder::Emit(TraceEventType::kCheckpoint, t0 + 20000, 1000, 8192, 0);
  FlightRecorder::Emit(TraceEventType::kPartitionPhase, t0 + 30000, 0, 1, 3);
  const std::string json = fr.ExportChromeTraceJson();

  // Structural envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"dropped_events\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // All four event names present, with their categories.
  EXPECT_NE(json.find("\"name\":\"latch_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wal_fsync\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"checkpoint\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"partition_phase\""), std::string::npos);
  // Span events are complete ("X") with durations; the partition phase is
  // an instant; the emitting thread got a metadata name row.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  // The checkpoint span renders as a complete event with its duration
  // (1000 ns -> 1 us) and its payload argument.
  EXPECT_NE(
      json.find("\"name\":\"checkpoint\",\"cat\":\"engine\",\"ph\":\"X\""),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dur\":1.000,\"args\":{\"payload_bytes\":8192}"),
            std::string::npos)
      << json;

  // Per-thread timestamps come out sorted (Perfetto requires it per track).
  const std::vector<CollectedEvent> events = fr.Collect();
  std::uint64_t last_ts = 0;
  for (const CollectedEvent& ev : events) {
    if (ev.type == TraceEventType::kNone) continue;
    EXPECT_GE(ev.ts_ns, 0u);
    last_ts = std::max(last_ts, ev.ts_ns);
  }
  EXPECT_GE(last_ts, t0);
}

TEST(FlightRecorderTest, ExportChromeTraceWritesFile) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  FlightRecorder::Emit(TraceEventType::kMarker, NowNanos(), 0, 1, 2);
  const std::string path =
      testing::TempDir() + "/flight_recorder_test_trace.json";
  ASSERT_TRUE(fr.ExportChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::strncmp(buf, "{\"traceEvents\"", 14), 0);
  // Unwritable path reports the failure instead of silently dropping it.
  EXPECT_FALSE(fr.ExportChromeTrace("/nonexistent-dir/trace.json").ok());
}

TEST(FlightRecorderTest, ContentionAttributionRanksSites) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  CsProfiler::Global().Reset();
  // A genuinely contended latch acquire under a site scope: the holder
  // sleeps with the exclusive latch, the waiter records the wait.
  Latch latch(PageClass::kIndex);
  latch.AcquireExclusive();
  std::thread waiter([&] {
    TraceSiteScope site(TraceSite::kBtreeDescent);
    latch.AcquireShared();
    latch.ReleaseShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  latch.ReleaseExclusive();
  waiter.join();

  const CsCounts counts = CsProfiler::Global().Collect();
  const std::vector<ContentionEntry> snapshot = ContentionSnapshot(counts);
  ASSERT_FALSE(snapshot.empty());
  bool found = false;
  for (const ContentionEntry& e : snapshot) {
    if (e.site != TraceSite::kBtreeDescent) continue;
    found = true;
    EXPECT_GE(e.count, 1u);
    // The waiter slept ~5ms behind the holder.
    EXPECT_GE(e.total_wait_ns, 1'000'000u);
    EXPECT_GE(e.max_us, e.p50_us);
  }
  EXPECT_TRUE(found) << ContentionReportText(counts);
  const std::string report = ContentionReportText(counts);
  EXPECT_NE(report.find("btree_descent"), std::string::npos);

  // The ring also carries the latch-wait span (it cleared the 1us
  // threshold), tagged with the site.
  bool span_found = false;
  for (const CollectedEvent& ev : fr.Collect()) {
    if (ev.type == TraceEventType::kLatchWait &&
        ev.site == TraceSite::kBtreeDescent) {
      span_found = true;
      EXPECT_GE(ev.dur_ns, 1'000'000u);
    }
  }
  EXPECT_TRUE(span_found);
}

TEST(FlightRecorderTest, WaitThresholdGatesRingButNotStats) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  CsProfiler::Global().Reset();
  const std::uint64_t saved = fr.wait_threshold_ns();
  fr.SetWaitThresholdNs(1'000'000'000);  // 1s: nothing clears it
  {
    TraceSiteScope site(TraceSite::kHeapOp);
    CsProfiler::RecordLatch(PageClass::kHeap, /*contended=*/true, 50'000);
  }
  fr.SetWaitThresholdNs(saved);
  bool ring_event = false;
  for (const CollectedEvent& ev : fr.Collect()) {
    if (ev.type == TraceEventType::kLatchWait) ring_event = true;
  }
  EXPECT_FALSE(ring_event);
  bool stats_counted = false;
  for (const ContentionEntry& e :
       ContentionSnapshot(CsProfiler::Global().Collect())) {
    if (e.site == TraceSite::kHeapOp && e.count >= 1) stats_counted = true;
  }
  EXPECT_TRUE(stats_counted);
}

TEST(FlightRecorderTest, BlackBoxDumpIsReadable) {
  FlightRecorder& fr = FlightRecorder::Global();
  fr.ResetForTest();
  FlightRecorder::Emit(TraceEventType::kMarker, NowNanos(), 0, 0xabcd, 0);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  fr.DumpBlackBox(fds[1], /*per_thread=*/8);
  close(fds[1]);
  std::string dump;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    dump.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  EXPECT_NE(dump.find("PLP FLIGHT RECORDER BLACK BOX"), std::string::npos);
  EXPECT_NE(dump.find("END BLACK BOX"), std::string::npos);
  EXPECT_NE(dump.find("marker"), std::string::npos) << dump;
}

// The registry's ToText() renders the contention gauges (published by the
// Database gauge provider) as a ranked section, independent of recorder
// internals.
TEST(FlightRecorderTest, ToTextRendersContentionSection) {
  MetricsRegistry registry;
  registry.gauge("contention.btree_descent.waits")->Set(12);
  registry.gauge("contention.btree_descent.wait_us_total")->Set(900);
  registry.gauge("contention.btree_descent.p99_us")->Set(210);
  registry.gauge("contention.lock_table.waits")->Set(3);
  registry.gauge("contention.lock_table.wait_us_total")->Set(50);
  registry.gauge("contention.lock_table.p99_us")->Set(30);
  const std::string text = registry.Snapshot().ToText();
  const std::size_t header = text.find("top contended latch sites");
  ASSERT_NE(header, std::string::npos) << text;
  // Ranked by total wait: btree_descent (900us) before lock_table (50us).
  const std::size_t btree = text.find("btree_descent", header);
  const std::size_t lock = text.find("lock_table", header);
  ASSERT_NE(btree, std::string::npos);
  ASSERT_NE(lock, std::string::npos);
  EXPECT_LT(btree, lock);
}

}  // namespace
}  // namespace plp

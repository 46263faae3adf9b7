// Tests for the critical-section profiler — the measurement substrate
// behind Figures 1-3.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/sync/cs_profiler.h"

namespace plp {
namespace {

class CsProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { CsProfiler::Global().Reset(); }
};

TEST_F(CsProfilerTest, RecordsEntriesPerCategory) {
  CsProfiler::Record(CsCategory::kLockMgr, false);
  CsProfiler::Record(CsCategory::kLockMgr, true, 100);
  CsProfiler::Record(CsCategory::kLogMgr, false);

  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kLockMgr)], 2u);
  EXPECT_EQ(counts.contended[static_cast<int>(CsCategory::kLockMgr)], 1u);
  EXPECT_EQ(counts.wait_ns[static_cast<int>(CsCategory::kLockMgr)], 100u);
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kLogMgr)], 1u);
  EXPECT_EQ(counts.TotalEntries(), 3u);
  EXPECT_EQ(counts.TotalContended(), 1u);
}

TEST_F(CsProfilerTest, LatchCountsByPageClass) {
  CsProfiler::RecordLatch(PageClass::kIndex, false);
  CsProfiler::RecordLatch(PageClass::kIndex, true, 50);
  CsProfiler::RecordLatch(PageClass::kHeap, false);
  CsProfiler::RecordLatch(PageClass::kCatalog, false);

  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.latches[static_cast<int>(PageClass::kIndex)], 2u);
  EXPECT_EQ(counts.latches[static_cast<int>(PageClass::kHeap)], 1u);
  EXPECT_EQ(counts.latches[static_cast<int>(PageClass::kCatalog)], 1u);
  EXPECT_EQ(counts.TotalLatches(), 4u);
  // Latches also count as page-latch critical sections.
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kPageLatch)], 4u);
  EXPECT_EQ(counts.latch_wait_ns[static_cast<int>(PageClass::kIndex)], 50u);
}

TEST_F(CsProfilerTest, AggregatesAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int j = 0; j < kPerThread; ++j) {
        CsProfiler::Record(CsCategory::kBufferPool, false);
      }
    });
  }
  for (auto& t : threads) t.join();
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kBufferPool)],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST_F(CsProfilerTest, RetiredThreadCountsSurvive) {
  std::thread t([] {
    CsProfiler::Record(CsCategory::kXctMgr, false);
    TraceSiteScope site(TraceSite::kCheckpointer);
    CsProfiler::Record(CsCategory::kMetadata, true, 2'000);
  });
  t.join();  // thread-local state folded into retired counts
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kXctMgr)], 1u);
  const SiteWaits& site =
      counts.sites[static_cast<int>(TraceSite::kCheckpointer)];
  EXPECT_EQ(site.count, 1u);
  EXPECT_EQ(site.wait_ns, 2'000u);
  EXPECT_EQ(site.max_wait_ns, 2'000u);
}

// Collect() and Reset() read and zero live threads' blocks while those
// threads record contended waits (the TSan job runs this): totals stay
// exact under concurrent collection, and a final Reset leaves nothing.
TEST_F(CsProfilerTest, CollectAndResetRaceContendedWriters) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  auto run_writers = [](std::atomic<bool>* done) {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([] {
        TraceSiteScope site(TraceSite::kBtreeDescent);
        for (int j = 0; j < kPerThread; ++j) {
          CsProfiler::RecordLatch(PageClass::kIndex, true, 100);
        }
      });
    }
    for (auto& t : threads) t.join();
    done->store(true);
  };
  std::atomic<bool> done{false};
  std::thread writers(run_writers, &done);
  while (!done.load()) (void)CsProfiler::Global().Collect();
  writers.join();
  CsCounts counts = CsProfiler::Global().Collect();
  const SiteWaits& site =
      counts.sites[static_cast<int>(TraceSite::kBtreeDescent)];
  EXPECT_EQ(site.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(site.wait_ns, site.count * 100);

  done.store(false);
  std::thread again(run_writers, &done);
  while (!done.load()) CsProfiler::Global().Reset();
  again.join();
  CsProfiler::Global().Reset();
  counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.TotalEntries(), 0u);
  EXPECT_TRUE(ContentionSnapshot(counts).empty());
}

TEST_F(CsProfilerTest, ResetZeroesEverything) {
  CsProfiler::Record(CsCategory::kMetadata, true, 10);
  CsProfiler::RecordLatch(PageClass::kHeap, true, 20);
  CsProfiler::Global().Reset();
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.TotalEntries(), 0u);
  EXPECT_EQ(counts.TotalLatches(), 0u);
  EXPECT_EQ(counts.TotalContended(), 0u);
  // Both contended records were charged to a site; Reset clears those too.
  const SiteWaits& site = counts.sites[static_cast<int>(TraceSite::kUnknown)];
  EXPECT_EQ(site.count, 0u);
  EXPECT_EQ(site.wait_ns, 0u);
  EXPECT_EQ(site.max_wait_ns, 0u);
  EXPECT_TRUE(ContentionSnapshot(counts).empty());
}

TEST_F(CsProfilerTest, DisabledRecordingIsDropped) {
  CsProfiler::SetEnabled(false);
  CsProfiler::Record(CsCategory::kLockMgr, false);
  CsProfiler::SetEnabled(true);
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kLockMgr)], 0u);
}

TEST_F(CsProfilerTest, DeltaSubtraction) {
  TraceSiteScope site(TraceSite::kHeapOp);
  CsProfiler::Record(CsCategory::kLockMgr, false);
  CsProfiler::RecordLatch(PageClass::kHeap, true, 9'000);
  CsCounts before = CsProfiler::Global().Collect();
  CsProfiler::Record(CsCategory::kLockMgr, true, 7);
  CsProfiler::Record(CsCategory::kLogMgr, false);
  CsProfiler::RecordLatch(PageClass::kHeap, true, 5'000);
  CsCounts delta = CsProfiler::Global().Collect() - before;
  EXPECT_EQ(delta.entries[static_cast<int>(CsCategory::kLockMgr)], 1u);
  EXPECT_EQ(delta.contended[static_cast<int>(CsCategory::kLockMgr)], 1u);
  EXPECT_EQ(delta.entries[static_cast<int>(CsCategory::kLogMgr)], 1u);
  // The site windows exactly: only the two waits after `before` count.
  const SiteWaits& heap = delta.sites[static_cast<int>(TraceSite::kHeapOp)];
  EXPECT_EQ(heap.count, 2u);
  EXPECT_EQ(heap.wait_ns, 5'007u);
  EXPECT_EQ(heap.wait_us_buckets[0], 1u);  // 7 ns -> 0 us
  EXPECT_EQ(heap.wait_us_buckets[3], 1u);  // 5 us -> bit width 3
  // The max is cumulative: the window keeps the 9 us wait before it.
  EXPECT_EQ(heap.max_wait_ns, 9'000u);
  const std::vector<ContentionEntry> ranked = ContentionSnapshot(delta);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0].site, TraceSite::kHeapOp);
  EXPECT_EQ(ranked[0].count, 2u);
}

TEST_F(CsProfilerTest, CategoryAndClassNames) {
  EXPECT_STREQ(CsCategoryName(CsCategory::kLockMgr), "Lock mgr");
  EXPECT_STREQ(CsCategoryName(CsCategory::kPageLatch), "Page Latches");
  EXPECT_STREQ(PageClassName(PageClass::kIndex), "INDEX");
  EXPECT_STREQ(PageClassName(PageClass::kHeap), "HEAP");
}

}  // namespace
}  // namespace plp

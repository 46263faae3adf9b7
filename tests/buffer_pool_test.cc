// Tests for the buffer pool and page cleaner.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/buffer/page_cleaner.h"
#include "src/io/disk_manager.h"
#include "src/sync/cs_profiler.h"

namespace plp {
namespace {

TEST(BufferPoolTest, NewPageAssignsUniqueIds) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  Page* b = pool.NewPage(PageClass::kIndex);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(pool.num_pages(), 2u);
  EXPECT_EQ(a->page_class(), PageClass::kHeap);
  EXPECT_EQ(b->page_class(), PageClass::kIndex);
}

TEST(BufferPoolTest, FixReturnsSameFrame) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  EXPECT_EQ(pool.Fix(a->id()), a);
  EXPECT_EQ(pool.FixUnlocked(a->id()), a);
}

TEST(BufferPoolTest, FixUnknownIdReturnsNull) {
  BufferPool pool;
  EXPECT_EQ(pool.Fix(999), nullptr);
  EXPECT_EQ(pool.Fix(kInvalidPageId), nullptr);
}

TEST(BufferPoolTest, FreePageRemovesFrame) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  const PageId id = a->id();
  pool.FreePage(id);
  EXPECT_EQ(pool.Fix(id), nullptr);
  EXPECT_EQ(pool.num_pages(), 0u);
}

TEST(BufferPoolTest, NewPageWithIdIsIdempotentAndBumpsAllocator) {
  BufferPool pool;
  Page* p = pool.NewPageWithId(100, PageClass::kHeap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id(), 100u);
  EXPECT_EQ(pool.NewPageWithId(100, PageClass::kHeap), p);
  // Fresh allocations must not collide with the recovered id.
  Page* fresh = pool.NewPage(PageClass::kHeap);
  EXPECT_GT(fresh->id(), 100u);
}

TEST(BufferPoolTest, DirtyPageTracking) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  Page* b = pool.NewPage(PageClass::kHeap);
  a->MarkDirty();
  (void)b;
  std::vector<PageId> dirty = pool.DirtyPages(10);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], a->id());
}

TEST(BufferPoolTest, ResidentFixRecordsNoBufferPoolCs) {
  // The resident path resolves through the lock-free directory: a hit —
  // tracked or not — never enters a buffer-pool critical section. Only
  // the miss path (page-in, eviction) takes the shard mutex.
  CsProfiler::Global().Reset();
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  CsCounts before = CsProfiler::Global().Collect();
  pool.Fix(a->id());
  CsCounts delta = CsProfiler::Global().Collect() - before;
  EXPECT_EQ(delta.entries[static_cast<int>(CsCategory::kBufferPool)], 0u);
  before = CsProfiler::Global().Collect();
  pool.FixUnlocked(a->id());
  delta = CsProfiler::Global().Collect() - before;
  EXPECT_EQ(delta.entries[static_cast<int>(CsCategory::kBufferPool)], 0u);
}

TEST(BufferPoolTest, ConcurrentAllocation) {
  BufferPool pool;
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kEach; ++i) pool.NewPage(PageClass::kHeap);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.num_pages(), static_cast<std::size_t>(kThreads) * kEach);
}

// Frames live in fixed-size slabs (1024 slots each): allocations spanning
// several slabs from several threads still get dense frame indexes, and a
// swizzled reference resolves to the frame by address arithmetic alone.
TEST(BufferPoolTest, FrameArenaIndexesAreDenseAcrossSlabs) {
  BufferPool pool;
  constexpr int kThreads = 4, kEach = 625;  // 2500 frames: three slabs
  std::vector<std::vector<Page*>> taken(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &taken, t] {
      for (int i = 0; i < kEach; ++i) {
        taken[t].push_back(pool.NewPage(PageClass::kHeap));
      }
    });
  }
  for (auto& t : threads) t.join();

  constexpr std::size_t kTotal = std::size_t{kThreads} * kEach;
  std::vector<bool> seen(kTotal, false);
  for (const auto& pages : taken) {
    for (Page* f : pages) {
      const std::uint32_t idx = f->frame_index();
      ASSERT_LT(idx, kTotal);
      EXPECT_FALSE(seen[idx]) << "frame index " << idx << " handed out twice";
      seen[idx] = true;
      EXPECT_EQ(pool.SwizzledFrame(SwizzleRef(idx)), f);
      EXPECT_EQ(pool.Fix(f->id()), f);
    }
  }

  // A recycled frame keeps its slot, and so its index.
  Page* victim = taken[1][7];
  const std::uint32_t idx = victim->frame_index();
  pool.FreePage(victim->id());
  Page* reused = pool.NewPage(PageClass::kIndex);
  EXPECT_EQ(reused, victim);
  EXPECT_EQ(reused->frame_index(), idx);
  EXPECT_EQ(reused->page_class(), PageClass::kIndex);
  EXPECT_EQ(pool.SwizzledFrame(SwizzleRef(idx)), reused);
}

TEST(PageCleanerTest, CleansDirtyPagesDirectly) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  a->MarkDirty();
  PageCleaner cleaner(&pool);
  EXPECT_EQ(cleaner.RunOnce(), 1u);
  EXPECT_FALSE(a->dirty());
}

TEST(PageCleanerTest, DelegateReceivesOwnedPages) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  a->MarkDirty();
  std::vector<PageId> delegated;
  PageCleaner cleaner(&pool, [&](PageId id) {
    delegated.push_back(id);
    return true;
  });
  EXPECT_EQ(cleaner.RunOnce(), 1u);
  ASSERT_EQ(delegated.size(), 1u);
  EXPECT_EQ(delegated[0], a->id());
  // Delegated pages are cleaned by the owner, not the cleaner.
  EXPECT_TRUE(a->dirty());
}

TEST(PageCleanerTest, DeclinedDelegationFallsBackToDirectClean) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kCatalog);
  a->MarkDirty();
  PageCleaner cleaner(&pool, [](PageId) { return false; });
  EXPECT_EQ(cleaner.RunOnce(), 1u);
  EXPECT_FALSE(a->dirty());
}

// Index-class frames are eviction candidates whenever the pool has a disk,
// and read back from disk with class and content intact, under concurrent
// mixed fix/allocate load (the eviction-vs-pin races the pins must win).
TEST(BufferPoolTest, IndexFramesEvictUnderLoadAndReadBack) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("plp_bp_index_evict_" + std::to_string(::getpid()) +
                     ".db");
  std::filesystem::remove(path);
  std::unique_ptr<DiskManager> disk;
  ASSERT_TRUE(DiskManager::Open(path.string(), &disk).ok());

  BufferPoolConfig config;
  config.frame_budget = 8;
  config.disk = disk.get();
  BufferPool pool(config);

  constexpr int kPages = 48;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageRef page = pool.AllocatePage(PageClass::kIndex, UINT32_MAX);
    std::memset(page->data(), 'a' + (i % 26), kPageSize);
    page->MarkDirty();
    ids.push_back(page->id());
  }
  // Far more index pages than frames: evictions must have happened.
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GT(pool.disk_writes(), 0u);
  EXPECT_LE(pool.num_pages(), static_cast<std::size_t>(kPages));

  // Concurrent readers re-fix random pages (forcing read-through and more
  // evictions) while verifying every byte pattern and the page class.
  constexpr int kThreads = 4, kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const int i = (t * 31 + it * 7) % kPages;
        PageRef page = pool.AcquirePage(ids[static_cast<std::size_t>(i)],
                                        /*tracked=*/true);
        if (!page || page->page_class() != PageClass::kIndex ||
            page->data()[0] != static_cast<char>('a' + (i % 26)) ||
            page->data()[kPageSize - 1] != static_cast<char>('a' + (i % 26))) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.disk_reads(), 0u);
  std::filesystem::remove(path);
}

// A pinned miss whose freshly loaded frame is stolen before the pin lands
// retries the fix. The retry must not run under the shard mutex it takes
// again: with a two-frame budget and several faulting threads the steal
// is frequent, and a self-deadlock would hang this test.
TEST(BufferPoolTest, PinnedMissesRetryAfterStealWithoutDeadlock) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("plp_bp_miss_retry_" + std::to_string(::getpid()) +
                     ".db");
  std::filesystem::remove(path);
  std::unique_ptr<DiskManager> disk;
  ASSERT_TRUE(DiskManager::Open(path.string(), &disk).ok());

  BufferPoolConfig config;
  config.frame_budget = 2;
  config.disk = disk.get();
  BufferPool pool(config);

  constexpr int kPages = 16;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageRef page = pool.AllocatePage(PageClass::kHeap, UINT32_MAX);
    page->data()[0] = static_cast<char>('a' + i);
    page->MarkDirty();
    ids.push_back(page->id());
  }

  constexpr int kThreads = 8, kIters = 20000;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        const int i = (t * 5 + it * 3) % kPages;
        PageRef page = pool.AcquirePage(ids[static_cast<std::size_t>(i)],
                                        /*tracked=*/false);
        if (!page || page->data()[0] != static_cast<char>('a' + i)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.disk_reads(), 0u);
  std::filesystem::remove(path);
}

TEST(PageTest, OwnerTagDefaultsUnowned) {
  BufferPool pool;
  Page* a = pool.NewPage(PageClass::kHeap);
  EXPECT_EQ(a->owner_tag(), UINT32_MAX);
  a->set_owner_tag(7);
  EXPECT_EQ(a->owner_tag(), 7u);
}

TEST(PinGuardTest, PairsPinAcrossScopesAndMoves) {
  BufferPool pool;
  Page* p = pool.NewPage(PageClass::kHeap);
  {
    PinGuard outer(p);
    EXPECT_EQ(p->pin_count(), 1);
    {
      PinGuard moved(std::move(outer));
      EXPECT_EQ(p->pin_count(), 1);  // move transfers, never double-pins
    }
    EXPECT_EQ(p->pin_count(), 0);  // moved-from guard releases nothing
  }
  EXPECT_EQ(p->pin_count(), 0);
}

// Debug builds trap an unpaired Page::Pin at pool teardown — a leaked
// pin in a live pool silently makes the frame unevictable forever, so
// ~BufferPool asserts every frame has pinned-to-zero.
TEST(PinGuardDeathTest, LeakedPinTrapsAtTeardownInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "pin-discipline trap compiles out in NDEBUG builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BufferPool victim;
        victim.NewPage(PageClass::kHeap)->Pin();  // deliberately leaked
      },
      "leaked pin at BufferPool teardown");
  // The trap also dumps the flight-recorder black box to stderr before
  // aborting, so the post-mortem carries the recent event history.
  // (Separate EXPECT_DEATH: the gtest matcher's `.` never spans lines.)
  EXPECT_DEATH(
      {
        BufferPool victim;
        victim.NewPage(PageClass::kHeap)->Pin();
      },
      "PLP FLIGHT RECORDER BLACK BOX");
#endif
}

// The trap walks every arena frame, so a pin leaked on a frame that was
// then freed (now on the free list, in no shard map) is caught too.
TEST(PinGuardDeathTest, LeakedPinOnFreedFrameTrapsAtTeardown) {
#ifdef NDEBUG
  GTEST_SKIP() << "pin-discipline trap compiles out in NDEBUG builds";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BufferPool victim;
        Page* page = victim.NewPage(PageClass::kHeap);
        page->Pin();  // deliberately leaked
        victim.FreePage(page->id());
      },
      "leaked pin at BufferPool teardown");
#endif
}

}  // namespace
}  // namespace plp

// Lock manager and Speculative Lock Inheritance tests.
#include <gtest/gtest.h>

#include <thread>
#include <tuple>

#include "src/lock/lock_manager.h"
#include "src/lock/sli.h"
#include "src/sync/cs_profiler.h"

namespace plp {
namespace {

// Compatibility matrix, exhaustively (parameterized property sweep).
class LockCompatTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(AllPairs, LockCompatTest,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));

TEST_P(LockCompatTest, MatrixMatchesTextbook) {
  const auto a = static_cast<LockMode>(std::get<0>(GetParam()));
  const auto b = static_cast<LockMode>(std::get<1>(GetParam()));
  // Symmetric.
  EXPECT_EQ(LockCompatible(a, b), LockCompatible(b, a));
  // X is incompatible with everything.
  if (a == LockMode::kX || b == LockMode::kX) {
    EXPECT_FALSE(LockCompatible(a, b));
  }
  // Intent modes are compatible with each other.
  if ((a == LockMode::kIS || a == LockMode::kIX) &&
      (b == LockMode::kIS || b == LockMode::kIX)) {
    EXPECT_TRUE(LockCompatible(a, b));
  }
  // S conflicts with IX.
  if ((a == LockMode::kS && b == LockMode::kIX) ||
      (a == LockMode::kIX && b == LockMode::kS)) {
    EXPECT_FALSE(LockCompatible(a, b));
  }
}

TEST(LockCoversTest, CoverageRules) {
  EXPECT_TRUE(LockCovers(LockMode::kX, LockMode::kS));
  EXPECT_TRUE(LockCovers(LockMode::kX, LockMode::kIX));
  EXPECT_TRUE(LockCovers(LockMode::kS, LockMode::kIS));
  EXPECT_TRUE(LockCovers(LockMode::kIX, LockMode::kIS));
  EXPECT_FALSE(LockCovers(LockMode::kS, LockMode::kX));
  EXPECT_FALSE(LockCovers(LockMode::kIS, LockMode::kS));
  EXPECT_FALSE(LockCovers(LockMode::kIX, LockMode::kS));
}

TEST(LockManagerTest, GrantAndRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  lm.Release(1, "a");
  ASSERT_TRUE(lm.Acquire(2, "a", LockMode::kX).ok());
  lm.Release(2, "a");
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, "a", LockMode::kS).ok());
  lm.Release(1, "a");
  lm.Release(2, "a");
}

TEST(LockManagerTest, ConflictTimesOut) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  Status st = lm.Acquire(2, "a", LockMode::kX, std::chrono::milliseconds(30));
  EXPECT_TRUE(st.IsTimedOut());
  lm.Release(1, "a");
}

TEST(LockManagerTest, WaiterWakesOnRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  std::thread t([&] {
    Status st =
        lm.Acquire(2, "a", LockMode::kX, std::chrono::milliseconds(2000));
    EXPECT_TRUE(st.ok());
    lm.Release(2, "a");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lm.Release(1, "a");
  t.join();
}

TEST(LockManagerTest, ReacquireHeldModeIsNoop) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kS).ok());  // covered
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  lm.Release(1, "a");
  // Fully released: another txn can take it.
  ASSERT_TRUE(lm.Acquire(2, "a", LockMode::kX,
                         std::chrono::milliseconds(10)).ok());
}

TEST(LockManagerTest, UpgradeSoleHolder) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());  // upgrade S->X
  Status st = lm.Acquire(2, "a", LockMode::kS, std::chrono::milliseconds(20));
  EXPECT_TRUE(st.IsTimedOut());
  lm.Release(1, "a");
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kS).ok());
  ASSERT_TRUE(lm.Acquire(2, "a", LockMode::kS).ok());
  Status st = lm.Acquire(1, "a", LockMode::kX, std::chrono::milliseconds(20));
  EXPECT_TRUE(st.IsTimedOut());  // deadlock-prone upgrade resolved by timeout
  lm.Release(2, "a");
  lm.Release(1, "a");
}

TEST(LockManagerTest, ReleaseAllBatches) {
  LockManager lm;
  std::vector<std::string> names = {"a", "b", "c"};
  for (const auto& n : names) {
    ASSERT_TRUE(lm.Acquire(1, n, LockMode::kX).ok());
  }
  lm.ReleaseAll(1, names);
  for (const auto& n : names) {
    ASSERT_TRUE(lm.Acquire(2, n, LockMode::kX,
                           std::chrono::milliseconds(10)).ok());
  }
}

TEST(LockManagerTest, IntentModesDontConflict) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "t", LockMode::kIX).ok());
  ASSERT_TRUE(lm.Acquire(2, "t", LockMode::kIX).ok());
  ASSERT_TRUE(lm.Acquire(3, "t", LockMode::kIS).ok());
  lm.Release(1, "t");
  lm.Release(2, "t");
  lm.Release(3, "t");
}

TEST(LockManagerTest, AcquisitionsRecordLockMgrCs) {
  CsProfiler::Global().Reset();
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kS).ok());
  lm.Release(1, "a");
  CsCounts counts = CsProfiler::Global().Collect();
  EXPECT_EQ(counts.entries[static_cast<int>(CsCategory::kLockMgr)], 2u);
}

// A lock-conflict wait is charged to the lock manager's wait time (the
// lock-wait column of Figures 6, 7 and 10) but is not a critical-section
// entry: the blocked Acquire counts the one bucket entry any Acquire does.
TEST(LockManagerTest, ConflictWaitChargesLockMgrWaitNotEntries) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  const auto lock_mgr = static_cast<int>(CsCategory::kLockMgr);
  const CsCounts before = CsProfiler::Global().Collect();
  EXPECT_TRUE(
      lm.Acquire(2, "a", LockMode::kX, std::chrono::milliseconds(30))
          .IsTimedOut());
  const CsCounts delta = CsProfiler::Global().Collect() - before;
  EXPECT_EQ(delta.entries[lock_mgr], 1u);
  EXPECT_EQ(delta.contended[lock_mgr], 0u);
  EXPECT_GE(delta.wait_ns[lock_mgr], 30'000'000u);
  lm.Release(1, "a");
}

TEST(LockManagerTest, HasWaitersDetection) {
  LockManager lm;
  ASSERT_TRUE(lm.Acquire(1, "a", LockMode::kX).ok());
  EXPECT_FALSE(lm.HasWaiters("a"));
  std::thread t([&] {
    (void)lm.Acquire(2, "a", LockMode::kX, std::chrono::milliseconds(500));
    lm.Release(2, "a");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(lm.HasWaiters("a"));
  lm.Release(1, "a");
  t.join();
}

TEST(SliTest, InheritedLockSkipsLockManager) {
  LockManager lm;
  SliCache sli(&lm, /*pseudo_txn=*/1ull << 62);
  const std::string name = TableLockName(1);
  ASSERT_TRUE(sli.AcquireAndInherit(name, LockMode::kIX).ok());
  const std::uint64_t acquisitions = lm.num_acquisitions();
  // Covered requests touch no lock-manager state at all.
  EXPECT_TRUE(sli.Covers(name, LockMode::kIX));
  EXPECT_TRUE(sli.Covers(name, LockMode::kIS));
  EXPECT_FALSE(sli.Covers(name, LockMode::kX));
  EXPECT_EQ(lm.num_acquisitions(), acquisitions);
}

TEST(SliTest, ReleaseContendedGivesBackLock) {
  LockManager lm;
  SliCache sli(&lm, 1ull << 62);
  const std::string name = TableLockName(1);
  ASSERT_TRUE(sli.AcquireAndInherit(name, LockMode::kIX).ok());

  std::thread t([&] {
    // Conflicting request (S vs IX) blocks until the inheritor yields.
    Status st =
        lm.Acquire(99, name, LockMode::kS, std::chrono::milliseconds(2000));
    EXPECT_TRUE(st.ok());
    lm.Release(99, name);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  sli.ReleaseContended();  // transaction boundary: waiter detected
  t.join();
  EXPECT_EQ(sli.size(), 0u);
}

TEST(SliTest, ReleaseContendedKeepsUncontendedLocks) {
  LockManager lm;
  SliCache sli(&lm, 1ull << 62);
  ASSERT_TRUE(sli.AcquireAndInherit(TableLockName(1), LockMode::kIX).ok());
  ASSERT_TRUE(sli.AcquireAndInherit(TableLockName(2), LockMode::kIS).ok());
  sli.ReleaseContended();
  EXPECT_EQ(sli.size(), 2u);  // nobody was waiting
  sli.ReleaseAll();
  EXPECT_EQ(sli.size(), 0u);
}

TEST(LockNamesTest, Formats) {
  EXPECT_EQ(TableLockName(3), "t3");
  EXPECT_EQ(RecordLockName(3, "key"), "t3:key");
}

}  // namespace
}  // namespace plp

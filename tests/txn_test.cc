// Transaction and transaction-manager tests.
#include <gtest/gtest.h>

#include <thread>

#include "src/sync/cs_profiler.h"
#include "src/txn/txn_manager.h"

namespace plp {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : log_(), mgr_(&log_, &locks_) {}
  LogManager log_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(TxnTest, BeginAssignsUniqueIdsAndLogsBegin) {
  Transaction* a = mgr_.Begin();
  Transaction* b = mgr_.Begin();
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(a->state(), TxnState::kActive);
  EXPECT_EQ(mgr_.active_count(), 2u);
  EXPECT_GT(log_.next_lsn(), 0u);
  ASSERT_TRUE(mgr_.Commit(a).ok());
  ASSERT_TRUE(mgr_.Commit(b).ok());
}

TEST_F(TxnTest, CommitRetiresAndCounts) {
  Transaction* t = mgr_.Begin();
  ASSERT_TRUE(mgr_.Commit(t).ok());
  EXPECT_EQ(mgr_.active_count(), 0u);
  EXPECT_EQ(mgr_.committed(), 1u);
  EXPECT_EQ(mgr_.aborted(), 0u);
}

TEST_F(TxnTest, AbortRunsUndoNewestFirst) {
  Transaction* t = mgr_.Begin();
  std::vector<int> order;
  t->AddUndo([&] {
    order.push_back(1);
    return Status::OK();
  });
  t->AddUndo([&] {
    order.push_back(2);
    return Status::OK();
  });
  ASSERT_TRUE(mgr_.Abort(t).ok());
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(mgr_.aborted(), 1u);
}

TEST_F(TxnTest, AbortReleasesLocks) {
  Transaction* t = mgr_.Begin();
  ASSERT_TRUE(locks_.Acquire(t->id(), "r1", LockMode::kX).ok());
  t->held_locks().push_back("r1");
  ASSERT_TRUE(mgr_.Abort(t).ok());
  // Lock is free again.
  ASSERT_TRUE(
      locks_.Acquire(999, "r1", LockMode::kX, std::chrono::milliseconds(10))
          .ok());
}

TEST_F(TxnTest, CommitReleasesLocks) {
  Transaction* t = mgr_.Begin();
  ASSERT_TRUE(locks_.Acquire(t->id(), "r2", LockMode::kS).ok());
  t->held_locks().push_back("r2");
  ASSERT_TRUE(mgr_.Commit(t).ok());
  ASSERT_TRUE(
      locks_.Acquire(999, "r2", LockMode::kX, std::chrono::milliseconds(10))
          .ok());
}

TEST_F(TxnTest, UndoErrorSurfacesFromAbort) {
  Transaction* t = mgr_.Begin();
  t->AddUndo([] { return Status::Internal("undo failed"); });
  Status st = mgr_.Abort(t);
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST_F(TxnTest, XctMgrCriticalSectionsCounted) {
  CsProfiler::Global().Reset();
  Transaction* t = mgr_.Begin();
  ASSERT_TRUE(mgr_.Commit(t).ok());
  CsCounts counts = CsProfiler::Global().Collect();
  // One table insert at begin, one erase at retire.
  EXPECT_GE(counts.entries[static_cast<int>(CsCategory::kXctMgr)], 2u);
}

TEST(TxnDurabilityTest, DurableCommitFlushesLog) {
  LogManager log;  // in memory: durable_lsn() is the flushed position
  LockManager locks;
  TxnManagerConfig config;
  config.durable_commits = true;
  TxnManager mgr(&log, &locks, config);
  Transaction* t = mgr.Begin();
  // The commit record is the next append; `t` is retired (freed) once
  // Commit returns, so nothing may be read from it afterwards.
  const Lsn commit_lsn = log.next_lsn();
  ASSERT_TRUE(mgr.Commit(t).ok());
  EXPECT_GT(log.durable_lsn(), commit_lsn);
}

TEST(TxnDurabilityTest, ConcurrentTransactions) {
  LogManager log;
  LockManager locks;
  TxnManager mgr(&log, &locks);
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < kEach; ++j) {
        Transaction* t = mgr.Begin();
        ASSERT_TRUE(mgr.Commit(t).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mgr.committed(), static_cast<std::uint64_t>(kThreads) * kEach);
  EXPECT_EQ(mgr.active_count(), 0u);
}

TEST(TransactionTest, StateNames) {
  EXPECT_STREQ(TxnStateName(TxnState::kActive), "ACTIVE");
  EXPECT_STREQ(TxnStateName(TxnState::kCommitted), "COMMITTED");
  EXPECT_STREQ(TxnStateName(TxnState::kAborted), "ABORTED");
}

}  // namespace
}  // namespace plp

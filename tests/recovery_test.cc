// ARIES restart recovery tests over a durable directory: heap records are
// written to an on-disk WAL, then a Database opened on the directory runs
// RecoverDatabase — winners are redone, losers rolled back with logged
// CLRs.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/database.h"
#include "src/io/disk_manager.h"
#include "src/storage/slotted_page.h"

namespace plp {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("plp_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    LogConfig config;
    config.wal_dir = (dir_ / "wal").string();
    log_ = std::make_unique<LogManager>(config);
  }
  ~RecoveryTest() override {
    log_.reset();
    std::filesystem::remove_all(dir_);
  }

  Lsn LogOp(TxnId txn, LogType type, Rid rid, std::string redo,
            std::string undo) {
    LogRecord rec;
    rec.type = type;
    rec.txn = txn;
    rec.rid = rid;
    rec.redo = std::move(redo);
    rec.undo = std::move(undo);
    return log_->Append(rec);
  }

  void LogCommit(TxnId txn) {
    LogRecord rec;
    rec.type = LogType::kCommit;
    rec.txn = txn;
    log_->Append(rec);
  }

  // A page steal before the crash: writes a heap page image holding
  // `records` (slot -> bytes) to the data file, stamped with `page_lsn`.
  // The WAL rule holds because the log is forced first.
  void StealPage(PageId id,
                 const std::vector<std::pair<SlotId, std::string>>& records,
                 Lsn page_lsn) {
    log_->FlushAll();
    std::filesystem::create_directories(dir_);
    std::unique_ptr<DiskManager> disk;
    ASSERT_TRUE(DiskManager::Open((dir_ / "data.db").string(), &disk).ok());
    std::vector<char> image(kPageSize, 0);
    SlottedPage::Init(image.data());
    SlottedPage sp(image.data());
    for (const auto& [slot, bytes] : records) {
      ASSERT_TRUE(sp.PutAt(slot, bytes).ok());
    }
    PageSlotHeader header;
    header.magic = DiskManager::kPageMagic;
    header.page_class = static_cast<std::uint8_t>(PageClass::kHeap);
    header.page_lsn = page_lsn;
    ASSERT_TRUE(disk->WritePage(id, header, image.data()).ok());
    ASSERT_TRUE(disk->Sync().ok());
  }

  // Crash: the writer goes away with its log durable, then a Database
  // opens on the directory and recovers. Reopening later is another crash
  // (the previous Database is destroyed without Close()).
  std::unique_ptr<Database> Open() {
    if (log_ != nullptr) {
      log_->FlushAll();
      log_.reset();
    }
    DatabaseConfig config;
    config.data_dir = dir_.string();
    auto db = std::make_unique<Database>(config);
    EXPECT_TRUE(db->open_status().ok()) << db->open_status().ToString();
    return db;
  }

  static std::string ReadRecord(Database* db, Rid rid) {
    Page* page = db->pool()->FixUnlocked(rid.page_id);
    if (page == nullptr) return "<no page>";
    Slice rec;
    if (!SlottedPage(page->data()).Get(rid.slot, &rec).ok()) {
      return "<no record>";
    }
    return rec.ToString();
  }

  std::filesystem::path dir_;
  std::unique_ptr<LogManager> log_;
};

// The insert is the log's first record (LSN 0), which a fresh page's
// page_lsn of 0 must not mask.
TEST_F(RecoveryTest, CommittedInsertSurvives) {
  LogOp(1, LogType::kHeapInsert, Rid{10, 0}, "hello", "");
  LogCommit(1);

  auto db = Open();
  const RecoveryManager::Stats& stats = db->recovery_stats();
  EXPECT_EQ(stats.winners, 1u);
  EXPECT_EQ(stats.losers, 0u);
  EXPECT_EQ(stats.redo_ops, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 0}), "hello");
}

TEST_F(RecoveryTest, UncommittedInsertRolledBack) {
  LogOp(1, LogType::kHeapInsert, Rid{10, 0}, "winner", "");
  LogCommit(1);
  const Lsn loser =
      LogOp(2, LogType::kHeapInsert, Rid{10, 1}, "loser-data", "");
  // No commit record: loser. Its insert reached disk through a steal.
  StealPage(10, {{0, "winner"}, {1, "loser-data"}}, loser);

  auto db = Open();
  const RecoveryManager::Stats& stats = db->recovery_stats();
  EXPECT_EQ(stats.winners, 1u);
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_EQ(stats.undo_ops, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 0}), "winner");
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 1}), "<no record>");
}

TEST_F(RecoveryTest, UpdateUndoRestoresBeforeImage) {
  LogOp(1, LogType::kHeapInsert, Rid{5, 0}, "v1", "");
  LogCommit(1);
  const Lsn loser = LogOp(2, LogType::kHeapUpdate, Rid{5, 0}, "v2", "v1");
  // txn 2 never commits; its update was stolen to disk.
  StealPage(5, {{0, "v2"}}, loser);

  auto db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{5, 0}), "v1");
}

TEST_F(RecoveryTest, CommittedUpdateWins) {
  LogOp(1, LogType::kHeapInsert, Rid{5, 0}, "v1", "");
  LogCommit(1);
  LogOp(2, LogType::kHeapUpdate, Rid{5, 0}, "v2", "v1");
  LogCommit(2);

  auto db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 0u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{5, 0}), "v2");
}

TEST_F(RecoveryTest, DeleteUndoReinsertsRecord) {
  LogOp(1, LogType::kHeapInsert, Rid{7, 2}, "keep-me", "");
  LogCommit(1);
  const Lsn loser = LogOp(2, LogType::kHeapDelete, Rid{7, 2}, "", "keep-me");
  // txn 2 is in flight at the crash; the page left holds the deletion.
  StealPage(7, {}, loser);

  auto db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{7, 2}), "keep-me");
}

TEST_F(RecoveryTest, CommittedDeleteStaysDeleted) {
  LogOp(1, LogType::kHeapInsert, Rid{7, 2}, "gone", "");
  LogCommit(1);
  LogOp(2, LogType::kHeapDelete, Rid{7, 2}, "", "gone");
  LogCommit(2);

  auto db = Open();
  EXPECT_EQ(ReadRecord(db.get(), Rid{7, 2}), "<no record>");
}

TEST_F(RecoveryTest, InterleavedWinnersAndLosers) {
  // t1 commits, t2 is in flight, t3 commits; ops interleaved on one page.
  LogOp(1, LogType::kHeapInsert, Rid{3, 0}, "w1", "");
  LogOp(2, LogType::kHeapInsert, Rid{3, 1}, "l1", "");
  const Lsn loser = LogOp(2, LogType::kHeapUpdate, Rid{3, 1}, "l1b", "l1");
  // Stolen mid-flight, before t3's insert reached the page.
  StealPage(3, {{0, "w1"}, {1, "l1b"}}, loser);
  LogOp(3, LogType::kHeapInsert, Rid{3, 2}, "w2", "");
  LogCommit(1);
  LogCommit(3);

  auto db = Open();
  const RecoveryManager::Stats& stats = db->recovery_stats();
  EXPECT_EQ(stats.winners, 2u);
  EXPECT_EQ(stats.losers, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{3, 0}), "w1");
  EXPECT_EQ(ReadRecord(db.get(), Rid{3, 1}), "<no record>");
  EXPECT_EQ(ReadRecord(db.get(), Rid{3, 2}), "w2");
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  LogOp(1, LogType::kHeapInsert, Rid{10, 0}, "hello", "");
  LogCommit(1);
  const Lsn loser = LogOp(2, LogType::kHeapUpdate, Rid{10, 0}, "bye", "hello");
  StealPage(10, {{0, "bye"}}, loser);

  auto db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 1u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 0}), "hello");
  // Crash right after recovery with its CLR durable: the next restart
  // redoes the CLR and has nothing left to undo.
  db->log()->FlushAll();
  db.reset();
  db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 0u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 0}), "hello");
  // And once more, from the same durable state.
  db.reset();
  db = Open();
  EXPECT_EQ(db->recovery_stats().undo_ops, 0u);
  EXPECT_EQ(ReadRecord(db.get(), Rid{10, 0}), "hello");
}

}  // namespace
}  // namespace plp

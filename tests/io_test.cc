// Unit tests for the durable-storage building blocks: disk manager page
// slots, segmented WAL (including torn-tail repair), group commit, the
// checkpoint image codec, and buffer-pool eviction mechanics.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/io/checkpoint.h"
#include "src/io/disk_manager.h"
#include "src/io/wal_storage.h"
#include "src/log/log_manager.h"
#include "src/storage/slotted_page.h"

namespace plp {
namespace {

class IoTest : public ::testing::Test {
 protected:
  IoTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("plp_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~IoTest() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, DiskManagerRoundTrip) {
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());
  EXPECT_FALSE(dm->Contains(1));
  EXPECT_EQ(dm->max_page_id(), 0u);

  std::vector<char> page(kPageSize, 'x');
  PageSlotHeader h;
  h.page_class = 1;
  h.owner_tag = 7;
  h.table_tag = 3;
  h.page_lsn = 1234;
  ASSERT_TRUE(dm->WritePage(5, h, page.data()).ok());
  ASSERT_TRUE(dm->Sync().ok());
  EXPECT_TRUE(dm->Contains(5));
  EXPECT_EQ(dm->max_page_id(), 5u);

  std::vector<char> readback(kPageSize);
  PageSlotHeader rh;
  ASSERT_TRUE(dm->ReadPage(5, &rh, readback.data()).ok());
  EXPECT_EQ(rh.owner_tag, 7u);
  EXPECT_EQ(rh.table_tag, 3u);
  EXPECT_EQ(rh.page_lsn, 1234u);
  EXPECT_EQ(std::memcmp(page.data(), readback.data(), kPageSize), 0);

  EXPECT_TRUE(dm->ReadPage(4, &rh, readback.data()).IsNotFound());
}

TEST_F(IoTest, DiskManagerSurvivesReopen) {
  {
    std::unique_ptr<DiskManager> dm;
    ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());
    std::vector<char> page(kPageSize, 'a');
    PageSlotHeader h;
    h.page_lsn = 42;
    ASSERT_TRUE(dm->WritePage(1, h, page.data()).ok());
    ASSERT_TRUE(dm->WritePage(3, h, page.data()).ok());
    ASSERT_TRUE(dm->FreePage(1).ok());
    ASSERT_TRUE(dm->Sync().ok());
  }
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());
  EXPECT_FALSE(dm->Contains(1));
  EXPECT_TRUE(dm->Contains(3));
  EXPECT_EQ(dm->AllPages().size(), 1u);
}

LogRecord MakeRecord(TxnId txn, const std::string& redo) {
  LogRecord rec;
  rec.type = LogType::kHeapInsert;
  rec.txn = txn;
  rec.rid = Rid{1, 0};
  rec.redo = redo;
  return rec;
}

TEST_F(IoTest, WalSegmentsRollAndScan) {
  std::unique_ptr<WalStorage> wal;
  ASSERT_TRUE(WalStorage::Open(Path("wal"), /*segment_size=*/256, &wal).ok());
  std::vector<Lsn> lsns;
  Lsn at = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string bytes = MakeRecord(1, "payload-" + std::to_string(i))
                                  .Serialize();
    ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
    lsns.push_back(at);
    at += bytes.size();
  }
  ASSERT_TRUE(wal->Sync().ok());
  EXPECT_GT(wal->num_segments(), 3u);  // tiny segments must have rolled

  int count = 0;
  ASSERT_TRUE(wal->ScanFrom(0, [&](Lsn lsn, const LogRecord& rec) {
    EXPECT_EQ(lsn, lsns[static_cast<std::size_t>(count)]);
    EXPECT_EQ(rec.redo, "payload-" + std::to_string(count));
    ++count;
  }).ok());
  EXPECT_EQ(count, 50);

  // Scan from a mid-stream record boundary.
  count = 0;
  ASSERT_TRUE(wal->ScanFrom(lsns[30], [&](Lsn, const LogRecord&) {
    ++count;
  }).ok());
  EXPECT_EQ(count, 20);
}

TEST_F(IoTest, WalReopenContinuesStream) {
  Lsn end;
  {
    std::unique_ptr<WalStorage> wal;
    ASSERT_TRUE(WalStorage::Open(Path("wal"), 1u << 20, &wal).ok());
    const std::string bytes = MakeRecord(1, "first").Serialize();
    ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(wal->Sync().ok());
    end = wal->end_lsn();
  }
  std::unique_ptr<WalStorage> wal;
  ASSERT_TRUE(WalStorage::Open(Path("wal"), 1u << 20, &wal).ok());
  EXPECT_EQ(wal->end_lsn(), end);
  const std::string bytes = MakeRecord(2, "second").Serialize();
  ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
  int count = 0;
  ASSERT_TRUE(wal->ScanFrom(0, [&](Lsn, const LogRecord& rec) {
    ++count;
    EXPECT_EQ(rec.redo, count == 1 ? "first" : "second");
  }).ok());
  EXPECT_EQ(count, 2);
}

TEST_F(IoTest, WalTruncateBelowDropsWholeSegments) {
  std::unique_ptr<WalStorage> wal;
  ASSERT_TRUE(WalStorage::Open(Path("wal"), /*segment_size=*/256, &wal).ok());
  std::vector<Lsn> lsns;
  Lsn at = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string bytes =
        MakeRecord(1, "payload-" + std::to_string(i)).Serialize();
    ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
    lsns.push_back(at);
    at += bytes.size();
  }
  ASSERT_TRUE(wal->Sync().ok());
  const std::size_t before = wal->num_segments();
  ASSERT_GT(before, 3u);
  EXPECT_EQ(wal->start_lsn(), 0u);

  // A floor in the middle of the stream removes only segments that end
  // at or below it.
  const Lsn floor = lsns[30];
  const std::size_t removed = wal->TruncateBelow(floor);
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(wal->num_segments(), before - removed);
  EXPECT_GT(wal->start_lsn(), 0u);
  EXPECT_LE(wal->start_lsn(), floor)
      << "a segment straddling the floor must survive";

  // Records from the floor on are intact.
  int count = 0;
  ASSERT_TRUE(wal->ScanFrom(floor, [&](Lsn lsn, const LogRecord& rec) {
    EXPECT_EQ(lsn, lsns[static_cast<std::size_t>(30 + count)]);
    EXPECT_EQ(rec.redo, "payload-" + std::to_string(30 + count));
    ++count;
  }).ok());
  EXPECT_EQ(count, 20);

  // Truncating everything keeps the newest (append) segment.
  wal->TruncateBelow(at);
  EXPECT_GE(wal->num_segments(), 1u);

  // Appends continue the stream, and a reopen accepts the truncated
  // directory (no gap at the dropped prefix).
  const std::string bytes = MakeRecord(2, "after-truncate").Serialize();
  ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(wal->Sync().ok());
  wal.reset();
  ASSERT_TRUE(WalStorage::Open(Path("wal"), 256, &wal).ok());
  bool saw_tail = false;
  ASSERT_TRUE(wal->ScanFrom(at, [&](Lsn lsn, const LogRecord& rec) {
    EXPECT_EQ(lsn, at);
    EXPECT_EQ(rec.redo, "after-truncate");
    saw_tail = true;
  }).ok());
  EXPECT_TRUE(saw_tail);
}

// A log record can straddle a segment boundary (the LogBuffer's flush
// sink hands WalStorage arbitrary byte chunks). Truncation that deletes
// the segment holding the record's head leaves the next segment starting
// mid-record: reopen (torn-tail repair) and scans must start at the
// persisted floor, not at the unparseable stored head.
TEST_F(IoTest, WalTruncationSurvivesRecordStraddlingSegmentBoundary) {
  std::unique_ptr<WalStorage> wal;
  ASSERT_TRUE(WalStorage::Open(Path("wal"), /*segment_size=*/256, &wal).ok());

  // Fill segment 0 to just under the roll threshold, then append a
  // straddler record in two chunks sized so the first chunk crosses the
  // threshold: the roll happens between the chunks and the straddler's
  // tail opens segment 1 mid-record (exactly what the LogBuffer's
  // arbitrary flush chunking can produce).
  Lsn at = 0;
  const std::string filler = MakeRecord(1, "head-segment").Serialize();
  while (at + filler.size() < 256) {
    ASSERT_TRUE(wal->Append(filler.data(), filler.size()).ok());
    at += filler.size();
  }
  const std::string straddler =
      MakeRecord(2, "straddles-the-roll-" + std::string(64, 's')).Serialize();
  const std::size_t head_chunk = static_cast<std::size_t>(256 - at) + 2;
  ASSERT_LT(head_chunk, straddler.size());
  ASSERT_TRUE(wal->Append(straddler.data(), head_chunk).ok());
  ASSERT_EQ(wal->num_segments(), 1u);
  ASSERT_TRUE(wal->Append(straddler.data() + head_chunk,
                          straddler.size() - head_chunk).ok());
  ASSERT_EQ(wal->num_segments(), 2u) << "tail chunk must open segment 1";
  const Lsn straddler_lsn = at;
  at += straddler.size();

  // Records entirely inside segment 1, then enough to roll further.
  std::vector<std::pair<Lsn, std::string>> tail_records;
  for (int i = 0; i < 20; ++i) {
    const std::string payload = "tail-" + std::to_string(i);
    const std::string bytes = MakeRecord(3, payload).Serialize();
    ASSERT_TRUE(wal->Append(bytes.data(), bytes.size()).ok());
    tail_records.emplace_back(at, payload);
    at += bytes.size();
  }
  ASSERT_TRUE(wal->Sync().ok());

  // Truncate below the first whole record of segment 1. Segment 0 dies;
  // segment 1 survives but starts with the straddler's tail bytes.
  const Lsn floor = tail_records[0].first;
  ASSERT_GT(floor, straddler_lsn);
  ASSERT_EQ(wal->TruncateBelow(floor), 1u);
  EXPECT_LT(wal->start_lsn(), floor) << "segment 1 starts mid-straddler";
  EXPECT_EQ(wal->floor_lsn(), floor);

  // Scans clamp to the floor and parse cleanly.
  int count = 0;
  ASSERT_TRUE(wal->ScanFrom(0, [&](Lsn lsn, const LogRecord& rec) {
    EXPECT_EQ(lsn, tail_records[static_cast<std::size_t>(count)].first);
    EXPECT_EQ(rec.redo, tail_records[static_cast<std::size_t>(count)].second);
    ++count;
  }).ok());
  EXPECT_EQ(count, 20);

  // Reopen: torn-tail repair must not misparse the mid-record head and
  // wipe the surviving segments.
  wal.reset();
  ASSERT_TRUE(WalStorage::Open(Path("wal"), 256, &wal).ok());
  EXPECT_GE(wal->num_segments(), 1u) << "repair deleted live segments";
  EXPECT_EQ(wal->floor_lsn(), floor) << "floor survives reopen";
  count = 0;
  ASSERT_TRUE(wal->ScanFrom(0, [&](Lsn, const LogRecord&) { ++count; }).ok());
  EXPECT_EQ(count, 20) << "all post-floor records must survive reopen";

  // The stream still appends and reads back.
  const std::string more = MakeRecord(4, "after-reopen").Serialize();
  ASSERT_TRUE(wal->Append(more.data(), more.size()).ok());
  bool saw = false;
  ASSERT_TRUE(wal->ScanFrom(at, [&](Lsn lsn, const LogRecord& rec) {
    EXPECT_EQ(lsn, at);
    EXPECT_EQ(rec.redo, "after-reopen");
    saw = true;
  }).ok());
  EXPECT_TRUE(saw);
}

TEST_F(IoTest, WalTornTailRepairedOnReopen) {
  std::string full;
  {
    std::unique_ptr<WalStorage> wal;
    ASSERT_TRUE(WalStorage::Open(Path("wal"), 1u << 20, &wal).ok());
    full = MakeRecord(1, "kept").Serialize();
    ASSERT_TRUE(wal->Append(full.data(), full.size()).ok());
    const std::string torn = MakeRecord(2, "torn-away").Serialize();
    // Simulate a crash mid-write: only half the record hits the file.
    ASSERT_TRUE(wal->Append(torn.data(), torn.size() / 2).ok());
    ASSERT_TRUE(wal->Sync().ok());
  }
  std::unique_ptr<WalStorage> wal;
  ASSERT_TRUE(WalStorage::Open(Path("wal"), 1u << 20, &wal).ok());
  EXPECT_EQ(wal->end_lsn(), full.size());  // torn bytes dropped
  int count = 0;
  ASSERT_TRUE(wal->ScanFrom(0, [&](Lsn, const LogRecord& rec) {
    ++count;
    EXPECT_EQ(rec.redo, "kept");
  }).ok());
  EXPECT_EQ(count, 1);
}

TEST_F(IoTest, GroupCommitBatchesFsyncs) {
  LogConfig config;
  config.wal_dir = Path("wal");
  LogManager log(config);
  ASSERT_TRUE(log.open_status().ok());

  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        LogRecord rec;
        rec.type = LogType::kCommit;
        rec.txn = static_cast<TxnId>(t * 1000 + i + 1);
        const Lsn lsn = log.Append(rec);
        log.FlushTo(lsn);  // "commit": must be durable before returning
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(log.flush_requests(), kThreads * kCommitsPerThread);
  EXPECT_GE(log.durable_lsn(), log.next_lsn());
  // The whole point of group commit: far fewer fsyncs than commits.
  EXPECT_LT(log.sync_count(), log.flush_requests());

  int scanned = 0;
  ASSERT_TRUE(log.Scan([&](Lsn, const LogRecord&) { ++scanned; }).ok());
  EXPECT_EQ(scanned, kThreads * kCommitsPerThread);
}

TEST_F(IoTest, CheckpointImageRoundTrip) {
  CheckpointImage img;
  img.begin_lsn = 280;
  img.dirty_pages = {{3, 100}, {9, 250}};
  img.active_txns = {{11, 90}, {12, 240}};
  img.next_txn_id = 13;
  img.next_page_id = 42;
  CheckpointImage::TablePartitions single;
  single.table_id = 0;
  single.parts = {{"", 5}};
  CheckpointImage::TablePartitions multi;
  multi.table_id = 1;
  multi.parts = {{"", 7}, {std::string("\0\x01", 2), 19}, {"m", 23}};
  img.partitions = {single, multi};

  CheckpointImage out;
  ASSERT_TRUE(CheckpointImage::Decode(img.Encode(), &out).ok());
  EXPECT_EQ(out.begin_lsn, 280u);
  EXPECT_EQ(out.dirty_pages, img.dirty_pages);
  EXPECT_EQ(out.active_txns, img.active_txns);
  EXPECT_EQ(out.next_txn_id, 13u);
  EXPECT_EQ(out.next_page_id, 42u);
  ASSERT_EQ(out.partitions.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(out.partitions[i].table_id, img.partitions[i].table_id);
    EXPECT_EQ(out.partitions[i].parts, img.partitions[i].parts);
  }
  // A payload cut anywhere is rejected, never half-decoded.
  const std::string payload = img.Encode();
  EXPECT_EQ(
      CheckpointImage::Decode(payload.substr(0, payload.size() - 1), &out)
          .code(),
      StatusCode::kCorruption);

  EXPECT_EQ(img.ScanStart(300), 90u);  // min of dpt/txn/checkpoint lsns
  EXPECT_EQ(CheckpointImage{}.ScanStart(300), 300u);
}

TEST_F(IoTest, MasterRecordRoundTrip) {
  Lsn lsn = 0;
  EXPECT_TRUE(ReadMasterRecord(Path("CHECKPOINT"), &lsn).IsNotFound());
  ASSERT_TRUE(WriteMasterRecord(Path("CHECKPOINT"), 777).ok());
  ASSERT_TRUE(ReadMasterRecord(Path("CHECKPOINT"), &lsn).ok());
  EXPECT_EQ(lsn, 777u);
  ASSERT_TRUE(WriteMasterRecord(Path("CHECKPOINT"), 999).ok());
  ASSERT_TRUE(ReadMasterRecord(Path("CHECKPOINT"), &lsn).ok());
  EXPECT_EQ(lsn, 999u);
}

TEST_F(IoTest, BufferPoolEvictsCleanAndDirtyHeapPages) {
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());

  BufferPoolConfig pc;
  pc.frame_budget = 4;
  pc.disk = dm.get();
  BufferPool pool(pc);
  ASSERT_TRUE(pool.evicting());

  // Allocate more heap pages than the budget; write a recognizable
  // payload into each so reloads can be verified.
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    PageRef page = pool.AllocatePage(PageClass::kHeap, /*table_tag=*/0);
    SlottedPage::Init(page->data());
    SlotId slot;
    ASSERT_TRUE(SlottedPage(page->data())
                    .Insert("page-" + std::to_string(i), &slot)
                    .ok());
    page->MarkDirty();
    ids.push_back(page->id());
  }
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GT(pool.disk_writes(), 0u);
  EXPECT_LE(pool.num_pages(), 5u);  // soft budget

  // Every page remains readable through the pool (disk read-through).
  for (int i = 0; i < 12; ++i) {
    PageRef page = pool.AcquirePage(ids[static_cast<std::size_t>(i)],
                                    /*tracked=*/true);
    ASSERT_TRUE(page) << i;
    Slice rec;
    ASSERT_TRUE(SlottedPage(page->data()).Get(0, &rec).ok()) << i;
    EXPECT_EQ(rec.ToString(), "page-" + std::to_string(i));
  }
  EXPECT_GT(pool.disk_reads(), 0u);
}

TEST_F(IoTest, PinnedPagesAreNotEvicted) {
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());
  BufferPoolConfig pc;
  pc.frame_budget = 2;
  pc.disk = dm.get();
  BufferPool pool(pc);

  PageRef pinned = pool.AllocatePage(PageClass::kHeap, 0);
  SlottedPage::Init(pinned->data());
  Page* pinned_raw = pinned.get();
  const PageId pinned_id = pinned->id();
  for (int i = 0; i < 8; ++i) {
    PageRef p = pool.AllocatePage(PageClass::kHeap, 0);
    SlottedPage::Init(p->data());
    p->MarkDirty();
  }
  // The pinned frame survived the churn (same frame, still resident).
  EXPECT_EQ(pool.FixUnlocked(pinned_id), pinned_raw);
}

TEST_F(IoTest, EvictionNotifiesPageCaches) {
  std::unique_ptr<DiskManager> dm;
  ASSERT_TRUE(DiskManager::Open(Path("data.db"), &dm).ok());
  BufferPoolConfig pc;
  pc.frame_budget = 2;
  pc.disk = dm.get();
  BufferPool pool(pc);
  PageCache cache(&pool);

  std::vector<PageId> evicted;
  pool.RegisterEvictionListener(&evicted, [&evicted](PageId id) {
    evicted.push_back(id);
  });
  for (int i = 0; i < 6; ++i) {
    PageRef p = pool.AllocatePage(PageClass::kHeap, 0);
    SlottedPage::Init(p->data());
    (void)cache.Fix(p->id());
  }
  pool.UnregisterEvictionListener(&evicted);
  EXPECT_FALSE(evicted.empty());
  // Cache entries for evicted ids were dropped: a fresh Fix must go back
  // through the pool and return the *current* frame.
  for (PageId id : evicted) {
    Page* via_cache = cache.Fix(id);
    Page* via_pool = pool.FixUnlocked(id);
    EXPECT_EQ(via_cache, via_pool);
  }
}

// End-to-end segment reclamation: a clean shutdown (flush + checkpoint)
// publishes a recovery floor above the old segments, which Checkpoint then
// deletes — and a crash-style reopen of the truncated WAL still recovers
// everything.
TEST_F(IoTest, CheckpointTruncatesUnreachableWalSegments) {
  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.db.data_dir = Path("db");
  config.db.log.segment_size = 4096;
  config.db.txn.durable_commits = true;
  constexpr std::uint32_t kRecords = 300;
  {
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok());
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    for (std::uint32_t k = 0; k < kRecords; ++k) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      req.Add(0, "t", key, [key](ExecContext& ctx) {
        return ctx.Insert(key, "payload-" + std::string(64, 'p'));
      });
      ASSERT_TRUE(engine->Execute(req).ok()) << k;
    }
    engine->Stop();
    WalStorage* wal = engine->db().log()->wal();
    ASSERT_NE(wal, nullptr);
    const std::size_t before = wal->num_segments();
    ASSERT_GT(before, 3u) << "workload must have rolled several segments";

    // Close flushes every dirty page, so its checkpoint's recovery floor
    // sits just below the checkpoint record: old segments are garbage.
    ASSERT_TRUE(engine->db().Close().ok());
    EXPECT_LT(wal->num_segments(), before);
    EXPECT_GT(wal->start_lsn(), 0u);
  }

  // Crash-style reopen (the Database above was closed cleanly, but the
  // reopen still replays master record + truncated WAL tail).
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok());
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  for (std::uint32_t k = 0; k < kRecords; k += 13) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto holder = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, holder](ExecContext& ctx) {
      return ctx.Read(key, holder.get());
    });
    ASSERT_TRUE(engine->Execute(req).ok()) << k;
    EXPECT_EQ(*holder, "payload-" + std::string(64, 'p'));
  }
  engine->Stop();
}

}  // namespace
}  // namespace plp

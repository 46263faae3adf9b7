// End-to-end durability acceptance tests: populate a table whose page
// count exceeds the buffer-pool frame budget (evictions observed), crash
// or close the Database, reopen from the data file + WAL + checkpoint,
// and verify committed records survive while uncommitted ones are gone.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/io/checkpoint.h"

namespace plp {
namespace {

class DurabilityTest : public ::testing::Test {
 protected:
  DurabilityTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("plp_durability_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  ~DurabilityTest() override { std::filesystem::remove_all(dir_); }

  EngineConfig MakeConfig(std::size_t frame_budget = 16) {
    EngineConfig config;
    config.design = SystemDesign::kConventional;
    config.db.data_dir = dir_.string();
    config.db.frame_budget = frame_budget;
    config.db.txn.durable_commits = true;
    return config;
  }

  static std::string Payload(std::uint32_t k) {
    // ~200 bytes so a handful of records fill a page.
    return "value-" + std::to_string(k) + "-" + std::string(192, 'p');
  }

  static Status InsertOne(Engine* engine, std::uint32_t k) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, k](ExecContext& ctx) {
      return ctx.Insert(key, Payload(k));
    });
    return engine->Execute(req);
  }

  static std::string ReadOne(Engine* engine, std::uint32_t k) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto payload = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
      return ctx.Read(key, payload.get());
    });
    if (!engine->Execute(req).ok()) return "<not found>";
    return *payload;
  }

  std::filesystem::path dir_;
};

constexpr std::uint32_t kRecords = 1500;

TEST_F(DurabilityTest, EvictThenCrashThenRecover) {
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok())
        << engine->db().open_status().ToString();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

    for (std::uint32_t k = 0; k < kRecords; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
    }
    // The working set must have exceeded the 16-frame budget.
    EXPECT_GT(engine->db().pool()->num_pages(), 0u);
    EXPECT_GT(engine->db().pool()->evictions(), 0u)
        << "table must be larger than the frame budget";
    EXPECT_GT(engine->db().pool()->disk_writes(), 0u);

    // A transaction that aborts: its writes must not surface after
    // restart even though some of its pages may have been stolen.
    {
      TxnRequest req;
      const std::string key = KeyU32(999999);
      req.Add(0, "t", key, [key](ExecContext& ctx) {
        PLP_RETURN_IF_ERROR(ctx.Insert(key, "doomed"));
        return Status::Aborted("simulated failure");
      });
      EXPECT_FALSE(engine->Execute(req).ok());
    }
    engine->Stop();
    // Crash: the engine (and Database) are destroyed without Close().
  }

  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  // Catalog recovered the table.
  ASSERT_NE(engine->db().GetTable("t"), nullptr);

  for (std::uint32_t k = 0; k < kRecords; k += 7) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  EXPECT_EQ(ReadOne(engine.get(), 999999), "<not found>")
      << "aborted transaction leaked through restart";

  // The reopened pool still enforces the budget while serving reads.
  EXPECT_GT(engine->db().pool()->disk_reads(), 0u);

  // And the database stays writable after recovery.
  ASSERT_TRUE(InsertOne(engine.get(), kRecords + 1).ok());
  EXPECT_EQ(ReadOne(engine.get(), kRecords + 1), Payload(kRecords + 1));
  engine->Stop();
  ASSERT_TRUE(engine->db().Close().ok());
}

TEST_F(DurabilityTest, CleanCloseReopensWithMinimalReplay) {
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    for (std::uint32_t k = 0; k < 300; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok());
    }
    engine->Stop();
    ASSERT_TRUE(engine->db().Close().ok());
  }
  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  // A clean close checkpointed with an empty dirty-page table, so the
  // restart scan starts at (or after) the final checkpoint: no redo work.
  EXPECT_EQ(engine->db().recovery_stats().redo_ops, 0u);
  for (std::uint32_t k = 0; k < 300; k += 11) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  engine->Stop();
}

TEST_F(DurabilityTest, CheckpointBoundsReplayAfterCrash) {
  Lsn checkpoint_lsn = 0;
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    for (std::uint32_t k = 0; k < 400; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok());
    }
    ASSERT_TRUE(engine->db().Checkpoint().ok());
    checkpoint_lsn = engine->db().log()->durable_lsn();
    for (std::uint32_t k = 400; k < 500; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok());
    }
    engine->Stop();  // crash
  }
  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  // The restart scan began at the checkpoint's dirty-page horizon, far
  // past the log's beginning (400 transactions came before it) and not
  // past the checkpoint itself.
  EXPECT_GT(engine->db().recovery_stats().scan_start, 0u);
  EXPECT_LE(engine->db().recovery_stats().scan_start, checkpoint_lsn);
  for (std::uint32_t k = 0; k < 500; k += 13) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  engine->Stop();
}

TEST_F(DurabilityTest, UpdatesAndDeletesSurviveRestart) {
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    for (std::uint32_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok());
    }
    // Update half, delete a quarter.
    for (std::uint32_t k = 0; k < 200; k += 2) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      req.Add(0, "t", key, [key, k](ExecContext& ctx) {
        return ctx.Update(key, "updated-" + std::to_string(k));
      });
      ASSERT_TRUE(engine->Execute(req).ok());
    }
    for (std::uint32_t k = 1; k < 200; k += 4) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      req.Add(0, "t", key, [key](ExecContext& ctx) {
        return ctx.Delete(key);
      });
      ASSERT_TRUE(engine->Execute(req).ok());
    }
    engine->Stop();  // crash
  }
  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok());
  for (std::uint32_t k = 0; k < 200; ++k) {
    const std::string got = ReadOne(engine.get(), k);
    if (k % 2 == 0) {
      EXPECT_EQ(got, "updated-" + std::to_string(k)) << k;
    } else if (k % 4 == 1) {
      EXPECT_EQ(got, "<not found>") << k;
    } else {
      EXPECT_EQ(got, Payload(k)) << k;
    }
  }
  engine->Stop();
}

// Acceptance property of the persistent-index subsystem: a checkpoint
// carries NO serialized index nodes — its payload is O(dirty pages +
// active txns + partition metadata), independent of index size.
TEST_F(DurabilityTest, CheckpointPayloadExcludesIndexNodes) {
  auto created = CreateEngine(MakeConfig(/*frame_budget=*/64));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
  constexpr std::uint32_t kMany = 2000;
  for (std::uint32_t k = 0; k < kMany; ++k) {
    ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
  }
  ASSERT_TRUE(engine->db().Checkpoint().ok());

  Lsn ckpt_lsn = 0;
  ASSERT_TRUE(
      ReadMasterRecord((dir_ / "CHECKPOINT").string(), &ckpt_lsn).ok());
  std::string payload;
  ASSERT_TRUE(engine->db()
                  .log()
                  ->ScanFrom(ckpt_lsn,
                             [&](Lsn lsn, const LogRecord& rec) {
                               if (lsn == ckpt_lsn &&
                                   rec.type == LogType::kCheckpoint) {
                                 payload = rec.redo;
                               }
                             })
                  .ok());
  ASSERT_FALSE(payload.empty());
  CheckpointImage image;
  ASSERT_TRUE(CheckpointImage::Decode(payload, &image).ok());

  // No index contents; only the tiny partition-table baseline.
  ASSERT_EQ(image.partitions.size(), 1u);
  EXPECT_EQ(image.partitions[0].parts.size(), 1u);  // single partition

  // Payload size is bounded by the dirty-page + txn tables, nowhere near
  // what serializing 2000 index entries (~20KB+) would need.
  const std::size_t bound = 512 + 16 * image.dirty_pages.size() +
                            16 * image.active_txns.size();
  EXPECT_LT(payload.size(), bound)
      << "checkpoint payload grew with index size";

  engine->Stop();
  ASSERT_TRUE(engine->db().Close().ok());
}

// PLP-Leaf durable crash/restart: leaf splits move heap records at
// runtime (logged as system moves with the copy -> re-point -> release
// protocol); after a crash every committed record must stay reachable
// and heap-page owner tags are re-derived from the recovered leaves.
TEST_F(DurabilityTest, PlpLeafOwnedSurvivesCrashWithLeafSplits) {
  EngineConfig config;
  config.design = SystemDesign::kPlpLeaf;
  config.num_workers = 2;
  config.db.data_dir = dir_.string();
  config.db.frame_budget = 64;
  config.db.txn.durable_commits = true;
  constexpr std::uint32_t kN = 3000;
  {
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok());
    ASSERT_TRUE(engine->CreateTable("t", {"", KeyU32(kN / 2)}).ok());
    for (std::uint32_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
    }
    // ~200-byte payloads across 600 keys force many leaf splits (and
    // therefore logged heap-record moves).
    EXPECT_GT(engine->db().GetTable("t")->primary()->smo_count(), 0u);
    engine->Stop();  // crash
  }
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();  // attaches the recovered table, re-tags heap owners
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  Table* table = engine->db().GetTable("t");
  ASSERT_NE(table, nullptr);
  // Partition assignments survived.
  const auto boundaries = table->primary()->boundaries();
  ASSERT_EQ(boundaries.size(), 2u);
  EXPECT_EQ(boundaries[1], KeyU32(kN / 2));
  EXPECT_TRUE(table->primary()->CheckIntegrity().ok());
  for (std::uint32_t k = 0; k < kN; ++k) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  // Still writable after recovery (more splits on recovered leaves).
  for (std::uint32_t k = kN; k < kN + 100; ++k) {
    ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  engine->Stop();
}

TEST_F(DurabilityTest, RepeatedCrashReopenCycles) {
  // State accretes across several crash/reopen generations; every
  // generation must see everything all earlier generations committed.
  for (std::uint32_t gen = 0; gen < 4; ++gen) {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok())
        << "gen " << gen << ": " << engine->db().open_status().ToString();
    if (gen == 0) {
      ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    }
    for (std::uint32_t k = 0; k < gen * 100; k += 9) {
      EXPECT_EQ(ReadOne(engine.get(), k), Payload(k))
          << "gen " << gen << " key " << k;
    }
    for (std::uint32_t k = gen * 100; k < (gen + 1) * 100; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok());
    }
    if (gen % 2 == 0) {
      ASSERT_TRUE(engine->db().Checkpoint().ok());
    }
    engine->Stop();  // crash every generation
  }
}

// Secondary indexes are volatile (rebuilt on reopen), so evicting one of
// their dirty pages steals a slot in data.db. Those slots used to leak
// forever; they are now flagged volatile on disk, returned to the
// DiskManager free-slot list on eviction/drop, and reclaimed at the next
// open. `buffer_pool.leaked_index_slots` stays registered as a tripwire
// and must read 0 under eviction pressure.
TEST_F(DurabilityTest, EvictedSecondaryPagesDoNotLeakIndexSlots) {
  auto created = CreateEngine(MakeConfig(/*frame_budget=*/16));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  auto table = engine->CreateTable("t", {""});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  // Secondary key = full payload, so index pages fill (and evict) fast.
  ASSERT_TRUE(table.value()
                  ->AddSecondary("by_payload",
                                 [](Slice, Slice payload) {
                                   return std::string(payload.data(),
                                                      payload.size());
                                 })
                  .ok());
  for (std::uint32_t k = 0; k < kRecords; ++k) {
    ASSERT_TRUE(InsertOne(engine.get(), k).ok());
  }
  const StatsSnapshot stats = engine->GetStats();
  EXPECT_GT(stats.counter("buffer_pool.evictions"), 0u);
  EXPECT_EQ(stats.counter("buffer_pool.leaked_index_slots"), 0u);
  engine->Stop();
}

// Tentpole regression: once a warm-up pass has swizzled the resident
// subtree, repeated point lookups resolve every root-to-leaf hop through
// tagged frame references. Metrics prove the page table is out of the hot
// path: swizzle.hits grows with each descent while buffer_pool.hits and
// buffer_pool.misses stay flat (a clustered table keeps heap pages out of
// the read path, so the only fixes a descent could do are index ones).
TEST_F(DurabilityTest, HotDescentResolvesThroughSwizzledRefs) {
  auto created = CreateEngine(MakeConfig(/*frame_budget=*/0));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("t", {""}, /*clustered=*/true).ok());
  for (std::uint32_t k = 0; k < kRecords; ++k) {
    ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
  }
  // Warm-up descents install the swizzled child refs.
  for (std::uint32_t k = 0; k < kRecords; k += 3) {
    ASSERT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  // Let the page cleaner drain the insert dirt: its write-backs unswizzle
  // the flushed parents (consistent on-disk snapshot), so wait it out and
  // then re-warm to reinstall before measuring.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (std::uint32_t k = 0; k < kRecords; k += 3) {
    ASSERT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }

  const StatsSnapshot warm = engine->GetStats();
  ASSERT_GT(warm.counter("swizzle.installs"), 0u);
  ASSERT_GT(warm.gauge("buffer_pool.swizzled"), 0);

  constexpr std::uint32_t kHotReads = 500;
  for (std::uint32_t i = 0; i < kHotReads; ++i) {
    const std::uint32_t k = (i * 17) % kRecords;
    ASSERT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }

  const StatsSnapshot hot = engine->GetStats();
  // Every hot descent resolved at least one child hop via a tagged ref...
  EXPECT_GE(hot.counter("swizzle.hits"),
            warm.counter("swizzle.hits") + kHotReads);
  // ...and never touched the page table: zero additional lookups, hit or
  // miss.
  EXPECT_EQ(hot.counter("buffer_pool.hits"), warm.counter("buffer_pool.hits"));
  EXPECT_EQ(hot.counter("buffer_pool.misses"),
            warm.counter("buffer_pool.misses"));
  engine->Stop();
  ASSERT_TRUE(engine->db().Close().ok());
}

// Regression (Database::Checkpoint was unserialized): two interleaved
// checkpoints could publish master records out of order — a slow
// checkpoint overwriting CHECKPOINT with an older LSN *after* a faster
// one had already truncated the WAL segments that older record's restart
// scan would need. Hammer Checkpoint() from several threads against a
// live insert stream, crash, and verify the reopened database still
// recovers every committed record.
TEST_F(DurabilityTest, ConcurrentCheckpointsKeepMasterAndFloorConsistent) {
  constexpr std::uint32_t kInserted = 600;
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

    std::atomic<bool> stop{false};
    std::atomic<std::uint32_t> checkpoint_failures{0};
    std::vector<std::thread> checkpointers;
    for (int t = 0; t < 4; ++t) {
      checkpointers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (!engine->db().Checkpoint().ok()) {
            checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::uint32_t k = 0; k < kInserted; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
    }
    stop.store(true, std::memory_order_release);
    for (auto& th : checkpointers) th.join();
    EXPECT_EQ(checkpoint_failures.load(), 0u);
    engine->Stop();  // crash: no Close()
  }

  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  for (std::uint32_t k = 0; k < kInserted; k += 7) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  engine->Stop();
}

// Regression (Database::Close read `closed_` unguarded): two racing
// closers could both observe closed_ == false and each run the full
// flush + final-checkpoint sequence. Close from four threads: all must
// return OK, exactly one final checkpoint must run, and the reopened
// database must be clean.
TEST_F(DurabilityTest, ConcurrentCloseRunsShutdownOnce) {
  constexpr std::uint32_t kInserted = 100;
  {
    auto created = CreateEngine(MakeConfig());
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    for (std::uint32_t k = 0; k < kInserted; ++k) {
      ASSERT_TRUE(InsertOne(engine.get(), k).ok()) << k;
    }
    engine->Stop();

    std::atomic<std::uint32_t> failures{0};
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&] {
        if (!engine->db().Close().ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : closers) th.join();
    EXPECT_EQ(failures.load(), 0u);
    // Exactly one closer ran the shutdown sequence.
    EXPECT_EQ(engine->GetStats().counter("checkpoint.count"), 1u);
  }

  auto created = CreateEngine(MakeConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  // Clean close: restart replays nothing.
  EXPECT_EQ(engine->db().recovery_stats().redo_ops, 0u);
  for (std::uint32_t k = 0; k < kInserted; k += 7) {
    EXPECT_EQ(ReadOne(engine.get(), k), Payload(k)) << k;
  }
  engine->Stop();
}

}  // namespace
}  // namespace plp

// Recovery fuzz: run a randomized workload where transactions commit or
// abort at random, crash (destroy the engine without Close()) at an
// arbitrary point, reopen the durable directory, and compare the recovered
// table against a reference model that applies committed transactions
// only.
//
// Three flavors:
//  * RecoveryFuzzTest        — one long workload and one crash, with no
//    frame budget: nothing is evicted, so the data file holds only what
//    the page cleaner wrote back, and restart redoes the rest of the
//    history from the WAL.
//  * DurableRecoveryFuzzTest — a simulated-crash loop over the on-disk
//    WAL + checkpoints: several generations of random transactions, each
//    ended by a crash (or occasionally a clean close) at a random kill
//    point, with fuzzy checkpoints sprinkled at random; every reopen
//    recovers from data file + WAL + checkpoint and is verified against
//    the committed-only model over the whole key space.
//  * DurableSmoFuzzTest      — the crash loop on a PLP design, with leaf
//    splits and repartitions between crash points.
//  * InFlightCrashTest       — a real process crash (fork + _exit) with a
//    transaction blocked mid-action whose records are already durable, so
//    restart must undo a loser.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/key_encoding.h"
#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/index/btree_node.h"
#include "src/index/persistent/index_log.h"
#include "src/io/disk_manager.h"

namespace plp {
namespace {

// Swizzled child references (IsSwizzledRef — tagged buffer-pool frame
// indexes) are a runtime-only encoding: eviction write-back and the SMO
// logging hooks must sanitize them before any page image leaves the pool.
// Checks every child reference of one index-node image.
void ExpectNoTaggedRefs(const char* page_data, const std::string& what) {
  BTreeNode node(const_cast<char*>(page_data));
  if (node.level() == 0) return;
  EXPECT_FALSE(IsSwizzledRef(node.leftmost_child()))
      << what << ": tagged leftmost child";
  for (int i = 0; i < node.count(); ++i) {
    EXPECT_FALSE(IsSwizzledRef(node.ChildAt(i)))
        << what << ": tagged child in entry " << i;
  }
}

// Scans the surviving WAL (record page ids, partition-table roots, and the
// node images embedded in SMO/repartition payloads) and every live on-disk
// index page for tagged PageIds. Run right after a crash-reopen, before
// the next workload dirties anything.
void VerifyNoSwizzledRefsEscaped(Database* db, int gen) {
  const std::string tag = "gen " + std::to_string(gen);
  (void)db->log()->ScanFrom(0, [&](Lsn lsn, const LogRecord& rec) {
    const std::string what = tag + " lsn " + std::to_string(lsn);
    EXPECT_FALSE(IsSwizzledRef(rec.rid.page_id)) << what << ": tagged rid";
    std::vector<std::pair<PageId, std::string>> images;
    std::vector<std::pair<std::string, PageId>> parts;
    if (rec.type == LogType::kIndexSmo) {
      EXPECT_TRUE(DecodeSmoPayload(rec.redo, &images)) << what;
    } else if (rec.type == LogType::kIndexRepartition) {
      EXPECT_TRUE(DecodeRepartitionPayload(rec.redo, &parts, &images)) << what;
    } else if (rec.type == LogType::kPartitionTable) {
      EXPECT_TRUE(DecodePartitionPayload(rec.redo, &parts)) << what;
    }
    for (const auto& [boundary, root] : parts) {
      EXPECT_FALSE(IsSwizzledRef(root)) << what << ": tagged partition root";
    }
    for (const auto& [pid, image] : images) {
      EXPECT_FALSE(IsSwizzledRef(pid)) << what << ": tagged SMO page id";
      std::vector<char> buf(kPageSize, 0);
      if (ApplyNodeImage(image, buf.data())) {
        ExpectNoTaggedRefs(buf.data(),
                           what + " SMO image of page " + std::to_string(pid));
      }
    }
  });
  DiskManager* disk = db->disk();
  ASSERT_NE(disk, nullptr);
  for (PageId id = 0; id <= disk->max_page_id(); ++id) {
    PageSlotHeader hdr;
    std::vector<char> img(kPageSize);
    if (!disk->ReadPage(id, &hdr, img.data()).ok()) continue;
    if (hdr.magic != DiskManager::kPageMagic) continue;  // free slot
    if (hdr.page_class != static_cast<std::uint8_t>(PageClass::kIndex)) {
      continue;
    }
    ExpectNoTaggedRefs(img.data(), tag + " disk page " + std::to_string(id));
  }
}


// Debug forensics: on a mismatch, dump every WAL record touching the key
// or its rid, with txn resolution markers.
void DumpKeyHistory(Database* db, std::uint32_t k, Rid rid) {
  fprintf(stderr,
          "KEYCTX scan_start=%llu redo=%llu undo=%llu idx=%llu\n",
          (unsigned long long)db->recovery_stats().scan_start,
          (unsigned long long)db->recovery_stats().redo_ops,
          (unsigned long long)db->recovery_stats().undo_ops,
          (unsigned long long)db->recovery_stats().index_ops);
  if (db->disk() != nullptr) {
    PageSlotHeader hdr;
    std::vector<char> img(kPageSize);
    if (db->disk()->ReadPage(rid.page_id, &hdr, img.data()).ok()) {
      fprintf(stderr, "KEYCTX disk page=%u page_lsn=%llu\n", rid.page_id,
              (unsigned long long)hdr.page_lsn);
    }
  }
  const std::string key = KeyU32(k);
  std::map<TxnId, char> resolution;  // C=commit, A=abort
  (void)db->log()->ScanFrom(0, [&](Lsn, const LogRecord& rec) {
    if (rec.type == LogType::kCommit) resolution[rec.txn] = 'C';
    if (rec.type == LogType::kAbort) resolution[rec.txn] = 'A';
  });
  (void)db->log()->ScanFrom(0, [&](Lsn lsn, const LogRecord& rec) {
    bool heap_match =
        (rec.type == LogType::kHeapInsert ||
         rec.type == LogType::kHeapUpdate ||
         rec.type == LogType::kHeapDelete) &&
        rec.rid.page_id == rid.page_id && rec.rid.slot == rid.slot;
    bool idx_match = false;
    if (rec.type == LogType::kIndexLeafInsert ||
        rec.type == LogType::kIndexLeafDelete ||
        rec.type == LogType::kIndexLeafUpdate) {
      std::string rkey, rval;
      DecodeIndexEntry(
          rec.type == LogType::kIndexLeafDelete ? rec.undo : rec.redo, &rkey,
          &rval);
      idx_match = rkey == key;
    }
    if (!heap_match && !idx_match) return;
    char res = rec.txn == kInvalidTxnId ? 'S'
               : resolution.count(rec.txn) ? resolution[rec.txn]
                                           : '?';
    fprintf(stderr,
            "KEYHIST lsn=%llu type=%s txn=%llu(%c) rid=%u/%u redo=%zu undo=%zu\n",
            (unsigned long long)lsn, LogTypeName(rec.type),
            (unsigned long long)rec.txn, res, rec.rid.page_id,
            (unsigned)rec.rid.slot, rec.redo.size(), rec.undo.size());
  });
}

// A seed-parameterized test owning a fresh data directory per case.
class CrashDirTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  explicit CrashDirTest(const std::string& prefix)
      : dir_(std::filesystem::temp_directory_path() /
             (prefix + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam()))) {
    std::filesystem::remove_all(dir_);
  }
  ~CrashDirTest() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

class RecoveryFuzzTest : public CrashDirTest {
 protected:
  RecoveryFuzzTest() : CrashDirTest("plp_fuzz_") {}
};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzzTest,
                         ::testing::Values(1, 7, 42, 1234, 99999),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(RecoveryFuzzTest, RecoveredStateMatchesCommittedModel) {
  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.db.data_dir = dir_.string();
  config.db.txn.durable_commits = true;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

  Rng rng(GetParam());
  std::map<std::uint32_t, std::string> model;  // committed state only

  for (int txn_no = 0; txn_no < 400; ++txn_no) {
    const bool doomed = rng.Percent(25);  // 25% of txns abort themselves
    const int ops = static_cast<int>(rng.Range(1, 4));
    std::map<std::uint32_t, std::string> staged = model;
    TxnRequest req;
    bool expect_ok = true;
    for (int op = 0; op < ops; ++op) {
      const auto k = static_cast<std::uint32_t>(rng.Uniform(200));
      const std::string key = KeyU32(k);
      const std::uint64_t kind = rng.Uniform(3);
      if (kind == 0) {
        const std::string value =
            "v" + std::to_string(txn_no) + "-" + std::to_string(op);
        const bool exists = staged.count(k) > 0;
        req.Add(0, "t", key, [key, value](ExecContext& ctx) {
          return ctx.Insert(key, value);
        });
        if (exists) {
          expect_ok = false;  // duplicate insert aborts the transaction
        } else {
          staged[k] = value;
        }
      } else if (kind == 1) {
        const std::string value = "u" + std::to_string(txn_no);
        const bool exists = staged.count(k) > 0;
        req.Add(0, "t", key, [key, value](ExecContext& ctx) {
          Status st = ctx.Update(key, value);
          return st.IsNotFound() ? Status::OK() : st;  // tolerated miss
        });
        if (exists) staged[k] = value;
      } else {
        const bool exists = staged.count(k) > 0;
        req.Add(0, "t", key, [key](ExecContext& ctx) {
          Status st = ctx.Delete(key);
          return st.IsNotFound() ? Status::OK() : st;
        });
        if (exists) staged.erase(k);
      }
    }
    if (doomed) {
      req.Add(1, "t", KeyU32(0), [](ExecContext&) {
        return Status::Aborted("fuzz-induced abort");
      });
    }
    Status st = engine->Execute(req);
    if (doomed || !expect_ok) {
      EXPECT_FALSE(st.ok());
    } else if (st.ok()) {
      model = std::move(staged);
    }
  }
  engine->Stop();
  engine.reset();  // crash point: no Close()

  created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();

  // The recovered index holds exactly the committed keys, and every key's
  // RID reaches the record its heap redo restored.
  MRBTree* primary = engine->db().GetTable("t")->primary();
  EXPECT_EQ(primary->num_entries(), model.size());
  for (const auto& [k, expected] : model) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto payload = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
      return ctx.Read(key, payload.get());
    });
    ASSERT_TRUE(engine->Execute(req).ok()) << k;
    EXPECT_EQ(*payload, expected) << k;
  }
  // And no uncommitted key leaked in.
  ASSERT_TRUE(primary
                  ->ScanFrom("",
                             [&](Slice key, Slice) {
                               EXPECT_EQ(model.count(DecodeU32(key)), 1u);
                               return true;
                             })
                  .ok());
  engine->Stop();
}

class DurableRecoveryFuzzTest : public CrashDirTest {
 protected:
  DurableRecoveryFuzzTest() : CrashDirTest("plp_durable_fuzz_") {}
};

INSTANTIATE_TEST_SUITE_P(Seeds, DurableRecoveryFuzzTest,
                         ::testing::Values(1, 7, 42, 1234, 99999),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(DurableRecoveryFuzzTest, CommittedStateSurvivesCrashLoop) {
  constexpr std::uint32_t kKeySpace = 150;
  Rng rng(GetParam());
  std::map<std::uint32_t, std::string> model;  // committed state only

  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.db.data_dir = dir_.string();
  config.db.frame_budget = 8;  // force eviction churn during the workload
  config.db.txn.durable_commits = true;

  constexpr int kGenerations = 5;
  for (int gen = 0; gen < kGenerations; ++gen) {
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok())
        << "gen " << gen << ": " << engine->db().open_status().ToString();
    if (gen == 0) {
      ASSERT_TRUE(engine->CreateTable("t", {""}).ok());
    }

    // Full-key-space verification against the committed-only model:
    // winners must be readable with their exact payloads, and everything
    // else (losers from the previous crash included) must be absent.
    for (std::uint32_t k = 0; k < kKeySpace; ++k) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      auto payload = std::make_shared<std::string>();
      req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
        return ctx.Read(key, payload.get());
      });
      const bool found = engine->Execute(req).ok();
      auto it = model.find(k);
      if (it != model.end()) {
        ASSERT_TRUE(found) << "gen " << gen << ": committed key " << k
                           << " lost in the crash";
        if (found && *payload != it->second) {
          Table* t2 = engine->db().GetTable("t");
          std::string v;
          if (t2->primary()->Probe(key, &v).ok() && v.size() >= 6) {
            Rid rid;
            memcpy(&rid.page_id, v.data(), 4);
            memcpy(&rid.slot, v.data() + 4, 2);
            fprintf(stderr, "MISMATCH gen=%d key=%u rid=%u/%u got=%s want=%s\n",
                    gen, k, rid.page_id, (unsigned)rid.slot, payload->c_str(),
                    it->second.c_str());
            DumpKeyHistory(&engine->db(), k, rid);
          }
        }
        EXPECT_EQ(*payload, it->second) << "gen " << gen << " key " << k;
      } else {
        EXPECT_FALSE(found) << "gen " << gen << ": uncommitted key " << k
                            << " leaked through recovery";
      }
    }

    // A random number of transactions: the kill point of this generation.
    const int txns = static_cast<int>(rng.Range(40, 150));
    for (int txn_no = 0; txn_no < txns; ++txn_no) {
      const bool doomed = rng.Percent(25);
      const int ops = static_cast<int>(rng.Range(1, 4));
      std::map<std::uint32_t, std::string> staged = model;
      TxnRequest req;
      bool expect_ok = true;
      for (int op = 0; op < ops; ++op) {
        const auto k = static_cast<std::uint32_t>(rng.Uniform(kKeySpace));
        const std::string key = KeyU32(k);
        const std::uint64_t kind = rng.Uniform(3);
        if (kind == 0) {
          const std::string value = "v" + std::to_string(gen) + "-" +
                                    std::to_string(txn_no) + "-" +
                                    std::to_string(op);
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key, value](ExecContext& ctx) {
            return ctx.Insert(key, value);
          });
          if (exists) {
            expect_ok = false;  // duplicate insert aborts the transaction
          } else {
            staged[k] = value;
          }
        } else if (kind == 1) {
          const std::string value =
              "u" + std::to_string(gen) + "-" + std::to_string(txn_no);
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key, value](ExecContext& ctx) {
            Status st = ctx.Update(key, value);
            return st.IsNotFound() ? Status::OK() : st;  // tolerated miss
          });
          if (exists) staged[k] = value;
        } else {
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key](ExecContext& ctx) {
            Status st = ctx.Delete(key);
            return st.IsNotFound() ? Status::OK() : st;
          });
          if (exists) staged.erase(k);
        }
      }
      if (doomed) {
        req.Add(1, "t", KeyU32(0), [](ExecContext&) {
          return Status::Aborted("fuzz-induced abort");
        });
      }
      Status st = engine->Execute(req);
      if (doomed || !expect_ok) {
        EXPECT_FALSE(st.ok());
      } else if (st.ok()) {
        model = std::move(staged);
      }
      // Fuzzy checkpoints at random points mid-workload.
      if (rng.Percent(3)) {
        ASSERT_TRUE(engine->db().Checkpoint().ok());
      }
    }

    engine->Stop();
    if (rng.Percent(25)) {
      // Occasionally shut down cleanly; most generations crash.
      ASSERT_TRUE(engine->db().Close().ok());
    }
  }
}

// Crash-loop fuzz over persistent-index STRUCTURE modifications: a PLP
// engine (latch-free MRBTree) runs random transactions that split leaves,
// plus explicit repartitions (MRBTree slice/meld — the multi-page SMOs),
// then crashes at a random point. Every reopen must recover the index
// purely from WAL redo — committed records reachable with exact payloads,
// partition boundaries intact, structural invariants holding.
class DurableSmoFuzzTest : public CrashDirTest {
 protected:
  DurableSmoFuzzTest() : CrashDirTest("plp_smo_fuzz_") {}
};

INSTANTIATE_TEST_SUITE_P(Seeds, DurableSmoFuzzTest,
                         ::testing::Values(3, 17, 4242),
                         [](const auto& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST_P(DurableSmoFuzzTest, SplitsAndMergesSurviveCrashLoop) {
  constexpr std::uint32_t kKeySpace = 300;
  Rng rng(GetParam());
  // Ascending inserts past kKeySpace, interleaved with the random ones:
  // they fill the last partition's rightmost leaf, so its append splits
  // (the new leaf starts with the incoming key alone) land between crash
  // points. A separate stream keeps the random phase's draws unchanged.
  Rng append_rng(GetParam() ^ 0xa99e17dULL);
  std::uint32_t append_next = kKeySpace;
  std::map<std::uint32_t, std::string> model;  // committed state only
  std::vector<std::string> expected_boundaries = {"", KeyU32(kKeySpace / 2)};

  EngineConfig config;
  config.design = SystemDesign::kPlpRegular;
  config.num_workers = 2;
  config.db.data_dir = dir_.string();
  config.db.frame_budget = 24;  // evict index and heap pages mid-workload
  config.db.txn.durable_commits = true;

  constexpr int kGenerations = 4;
  for (int gen = 0; gen < kGenerations; ++gen) {
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->db().open_status().ok())
        << "gen " << gen << ": " << engine->db().open_status().ToString();
    // The whole loop runs with swizzling on (the default): hot descents
    // install tagged refs while evictions, SMOs, and crashes churn them.
    ASSERT_TRUE(engine->db().pool()->swizzling_enabled());
    if (gen == 0) {
      ASSERT_TRUE(engine->CreateTable("t", expected_boundaries).ok());
    }
    Table* table = engine->db().GetTable("t");
    ASSERT_NE(table, nullptr);

    // Nothing tagged may have reached the WAL or data.db: verify every
    // surviving record and on-disk index image before the new workload.
    VerifyNoSwizzledRefsEscaped(&engine->db(), gen);

    // Partition assignments must have survived the previous crash.
    EXPECT_EQ(table->primary()->boundaries(), expected_boundaries)
        << "gen " << gen << ": partition metadata lost in the crash";
    const Status integrity = table->primary()->CheckIntegrity();
    ASSERT_TRUE(integrity.ok()) << "gen " << gen
                                << ": recovered tree violates invariants: "
                                << integrity.ToString();

    // Full-key-space verification against the committed-only model.
    for (std::uint32_t k = 0; k < append_next; ++k) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      auto payload = std::make_shared<std::string>();
      req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
        return ctx.Read(key, payload.get());
      });
      const bool found = engine->Execute(req).ok();
      auto it = model.find(k);
      if (it != model.end()) {
        ASSERT_TRUE(found) << "gen " << gen << ": committed key " << k
                           << " unreachable after crash";
        if (found && *payload != it->second) {
          std::string v;
          if (table->primary()->Probe(key, &v).ok() && v.size() >= 6) {
            Rid rid;
            memcpy(&rid.page_id, v.data(), 4);
            memcpy(&rid.slot, v.data() + 4, 2);
            fprintf(stderr, "MISMATCH gen=%d key=%u rid=%u/%u got=%s want=%s\n",
                    gen, k, rid.page_id, (unsigned)rid.slot, payload->c_str(),
                    it->second.c_str());
            DumpKeyHistory(&engine->db(), k, rid);
          }
        }
        EXPECT_EQ(*payload, it->second) << "gen " << gen << " key " << k;
      } else {
        EXPECT_FALSE(found) << "gen " << gen << ": uncommitted key " << k
                            << " leaked through recovery";
      }
    }

    const int txns = static_cast<int>(rng.Range(60, 160));
    for (int txn_no = 0; txn_no < txns; ++txn_no) {
      const bool doomed = rng.Percent(20);
      const int ops = static_cast<int>(rng.Range(1, 4));
      std::map<std::uint32_t, std::string> staged = model;
      TxnRequest req;
      bool expect_ok = true;
      for (int op = 0; op < ops; ++op) {
        const auto k = static_cast<std::uint32_t>(rng.Uniform(kKeySpace));
        const std::string key = KeyU32(k);
        // Bulky values split leaves quickly (crash points land mid-SMO
        // history: between anchors, SMO records, and commits).
        const std::string value = "v" + std::to_string(gen) + "-" +
                                  std::to_string(txn_no) + "-" +
                                  std::string(120, 'x');
        if (rng.Percent(60)) {
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key, value](ExecContext& ctx) {
            return ctx.Insert(key, value);
          });
          if (exists) {
            expect_ok = false;
          } else {
            staged[k] = value;
          }
        } else if (rng.Percent(50)) {
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key, value](ExecContext& ctx) {
            Status st = ctx.Update(key, value);
            return st.IsNotFound() ? Status::OK() : st;
          });
          if (exists) staged[k] = value;
        } else {
          const bool exists = staged.count(k) > 0;
          req.Add(0, "t", key, [key](ExecContext& ctx) {
            Status st = ctx.Delete(key);
            return st.IsNotFound() ? Status::OK() : st;
          });
          if (exists) staged.erase(k);
        }
      }
      if (doomed) {
        req.Add(1, "t", KeyU32(0), [](ExecContext&) {
          return Status::Aborted("fuzz-induced abort");
        });
      }
      Status st = engine->Execute(req);
      if (doomed || !expect_ok) {
        EXPECT_FALSE(st.ok());
      } else if (st.ok()) {
        model = std::move(staged);
      }

      if (append_rng.Percent(50)) {
        const bool append_doomed = append_rng.Percent(10);
        const int count = static_cast<int>(append_rng.Range(4, 12));
        std::map<std::uint32_t, std::string> appended;
        TxnRequest append_req;
        for (int a = 0; a < count; ++a) {
          const std::uint32_t k = append_next++;
          const std::string key = KeyU32(k);
          const std::string value = "a" + std::to_string(gen) + "-" +
                                    std::to_string(k) + std::string(60, 'y');
          append_req.Add(0, "t", key, [key, value](ExecContext& ctx) {
            return ctx.Insert(key, value);
          });
          appended[k] = value;
        }
        if (append_doomed) {
          append_req.Add(1, "t", KeyU32(0), [](ExecContext&) {
            return Status::Aborted("fuzz-induced abort");
          });
        }
        Status append_st = engine->Execute(append_req);
        if (append_doomed) {
          EXPECT_FALSE(append_st.ok());
        } else {
          ASSERT_TRUE(append_st.ok()) << append_st.ToString();
          model.insert(appended.begin(), appended.end());
        }
      }

      // Random repartitions: MRBTree slice/meld are the multi-page SMOs
      // whose atomicity the kIndexSmo record must guarantee across the
      // crash at the end of this generation.
      if (rng.Percent(4)) {
        std::vector<std::string> next = {""};
        const int parts = static_cast<int>(rng.Range(1, 4));
        std::set<std::uint32_t> cuts;
        for (int c = 0; c < parts; ++c) {
          cuts.insert(
              static_cast<std::uint32_t>(rng.Range(1, kKeySpace - 1)));
        }
        for (std::uint32_t c : cuts) next.push_back(KeyU32(c));
        ASSERT_TRUE(engine->Repartition("t", next).ok())
            << "gen " << gen << " txn " << txn_no;
        expected_boundaries = next;
      }
      if (rng.Percent(3)) {
        ASSERT_TRUE(engine->db().Checkpoint().ok());
      }
    }

    engine->Stop();
    if (rng.Percent(20)) {
      ASSERT_TRUE(engine->db().Close().ok());
    }
    // Otherwise: crash (destroy without Close) — possibly with the last
    // repartition's records still unflushed in the WAL tail.
  }

  // One final reopen sweeps the last generation's crash state too.
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  VerifyNoSwizzledRefsEscaped(&engine->db(), kGenerations);
  // The ascending inserts outgrew one leaf: the subtree holding them has
  // split its rightmost leaf at least once.
  MRBTree* primary = engine->db().GetTable("t")->primary();
  EXPECT_GE(primary->subtree(primary->PartitionFor(KeyU32(append_next - 1)))
                ->height(),
            2);
  engine->Stop();
}

// Crash with a transaction in flight, the examples/bank_audit.cpp drill
// made deterministic. A forked child commits a base population, then
// transaction A (partition 1) updates one key and inserts another and
// blocks inside its action. The child writes the dirty pages back while A
// is blocked (a steal, as the page cleaner or an eviction would; the WAL
// rule forces A's records out first), so A's effects reach the data file.
// Transaction B (partition 0, another worker) then commits durably, and
// the child _exits. On reopen A is a forced loser: restart does not redo
// loser heap ops, so the heap undo pass alone removes A's stolen writes.
TEST(InFlightCrashTest, BlockedTransactionIsUndoneAtRestart) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plp_inflight_crash_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EngineConfig config;
  config.design = SystemDesign::kPlpRegular;
  config.num_workers = 2;  // partitions 0 and 1 land on different workers
  config.db.data_dir = dir.string();
  config.db.txn.durable_commits = true;

  // Acknowledged commits: keys 0-9 and 100-109 (one per partition), plus
  // B's key 20. A rewrites 105 and inserts 150.
  std::map<std::uint32_t, std::string> committed;
  for (std::uint32_t k = 0; k < 10; ++k) {
    committed[k] = "c" + std::to_string(k);
    committed[100 + k] = "c" + std::to_string(100 + k);
  }
  committed[20] = "winner";
  const std::string kLoserValue = "loser-value";

  auto insert = [](std::uint32_t k, const std::string& value) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, value](ExecContext& ctx) {
      return ctx.Insert(key, value);
    });
    return req;
  };

  std::fflush(nullptr);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: plain exit codes only, never returns into the test harness.
    auto created = CreateEngine(config);
    if (!created.ok()) _exit(2);
    auto engine = std::move(created).value();
    if (!engine->db().open_status().ok()) _exit(2);
    engine->Start();
    if (!engine->CreateTable("t", {"", KeyU32(100)}).ok()) _exit(3);
    for (const auto& [k, value] : committed) {
      if (k == 20) continue;  // B's key, committed below
      TxnRequest req = insert(k, value);
      if (!engine->Execute(req).ok()) _exit(3);
    }

    std::atomic<bool> a_wrote{false};
    TxnRequest a;
    a.Add(0, "t", KeyU32(105), [&a_wrote, kLoserValue](ExecContext& ctx) {
      Status st = ctx.Update(KeyU32(105), kLoserValue);
      if (st.ok()) st = ctx.Insert(KeyU32(150), kLoserValue);
      if (!st.ok()) return st;
      a_wrote.store(true);
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    });
    TxnHandle a_handle = engine->Submit(std::move(a));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!a_wrote.load()) {
      if (std::chrono::steady_clock::now() > deadline) _exit(4);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!engine->db().pool()->FlushAllDirty(LatchPolicy::kLatched).ok()) {
      _exit(6);
    }
    TxnRequest b = insert(20, committed[20]);
    if (!engine->Execute(b).ok()) _exit(5);
    _exit(0);  // the crash: A still blocked, nothing closed
  }
  int wait_status = 0;
  ASSERT_EQ(waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFEXITED(wait_status));
  ASSERT_EQ(WEXITSTATUS(wait_status), 0) << "child failed before the crash";

  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  engine->Start();
  const RecoveryManager::Stats& stats = engine->db().recovery_stats();
  EXPECT_GE(stats.losers, 1u);
  EXPECT_GE(stats.undo_ops, 1u);

  for (const auto& [k, expected] : committed) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto payload = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
      return ctx.Read(key, payload.get());
    });
    ASSERT_TRUE(engine->Execute(req).ok()) << "committed key " << k;
    EXPECT_EQ(*payload, expected) << "key " << k;
  }
  Table* table = engine->db().GetTable("t");
  ASSERT_NE(table, nullptr);
  std::string unused;
  EXPECT_FALSE(table->primary()->Probe(KeyU32(150), &unused).ok())
      << "the loser's insert survived in the index";
  EXPECT_EQ(table->primary()->num_entries(), committed.size());
  // No heap record may still carry the loser's bytes (its update's
  // before-image and its insert are both undone in the heap).
  int loser_records = 0;
  table->heap()->Scan([&](Rid, Slice rec) {
    if (rec.view().find(kLoserValue) != std::string_view::npos) {
      ++loser_records;
    }
  });
  EXPECT_EQ(loser_records, 0);
  engine->Stop();
  engine.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace plp

// Engine tests, parameterized over all five system designs (Section 4.1):
// identical logical behaviour, different physical disciplines.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/sync/cs_profiler.h"

namespace plp {
namespace {

class EngineTest : public ::testing::TestWithParam<SystemDesign> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.design = GetParam();
    config.num_workers = 4;
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    engine_ = std::move(created).value();
    engine_->Start();
    auto result = engine_->CreateTable(
        "t", {"", KeyU32(250), KeyU32(500), KeyU32(750)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    table_ = result.value();
  }

  void TearDown() override { engine_->Stop(); }

  Status Insert(std::uint32_t k, const std::string& value) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, value](ExecContext& ctx) {
      return ctx.Insert(key, value);
    });
    return engine_->Execute(req);
  }

  Status Read(std::uint32_t k, std::string* out) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto holder = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, holder](ExecContext& ctx) {
      return ctx.Read(key, holder.get());
    });
    Status st = engine_->Execute(req);
    *out = *holder;
    return st;
  }

  Status Update(std::uint32_t k, const std::string& value) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, value](ExecContext& ctx) {
      return ctx.Update(key, value);
    });
    return engine_->Execute(req);
  }

  Status Delete(std::uint32_t k) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key,
            [key](ExecContext& ctx) { return ctx.Delete(key); });
    return engine_->Execute(req);
  }

  std::unique_ptr<Engine> engine_;
  Table* table_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, EngineTest,
    ::testing::Values(SystemDesign::kConventional, SystemDesign::kLogical,
                      SystemDesign::kPlpRegular, SystemDesign::kPlpPartition,
                      SystemDesign::kPlpLeaf),
    [](const auto& info) {
      switch (info.param) {
        case SystemDesign::kConventional: return "Conventional";
        case SystemDesign::kLogical: return "Logical";
        case SystemDesign::kPlpRegular: return "PlpRegular";
        case SystemDesign::kPlpPartition: return "PlpPartition";
        case SystemDesign::kPlpLeaf: return "PlpLeaf";
      }
      return "Unknown";
    });

TEST_P(EngineTest, InsertReadRoundTrip) {
  ASSERT_TRUE(Insert(10, "hello").ok());
  std::string out;
  ASSERT_TRUE(Read(10, &out).ok());
  EXPECT_EQ(out, "hello");
}

TEST_P(EngineTest, ReadMissingFails) {
  std::string out;
  EXPECT_FALSE(Read(404, &out).ok());
}

TEST_P(EngineTest, DuplicateInsertAbortsTransaction) {
  ASSERT_TRUE(Insert(10, "v1").ok());
  EXPECT_TRUE(Insert(10, "v2").IsAlreadyExists());
  std::string out;
  ASSERT_TRUE(Read(10, &out).ok());
  EXPECT_EQ(out, "v1");
}

TEST_P(EngineTest, UpdatePersists) {
  ASSERT_TRUE(Insert(10, "v1").ok());
  ASSERT_TRUE(Update(10, "v2").ok());
  std::string out;
  ASSERT_TRUE(Read(10, &out).ok());
  EXPECT_EQ(out, "v2");
}

TEST_P(EngineTest, DeleteRemoves) {
  ASSERT_TRUE(Insert(10, "v").ok());
  ASSERT_TRUE(Delete(10).ok());
  std::string out;
  EXPECT_FALSE(Read(10, &out).ok());
}

TEST_P(EngineTest, KeysLandInEveryPartition) {
  for (std::uint32_t k : {1u, 300u, 600u, 900u}) {
    ASSERT_TRUE(Insert(k, "p").ok());
  }
  // Each partition's subtree holds exactly one key when the index is
  // multi-rooted (PLP designs).
  if (GetParam() != SystemDesign::kConventional &&
      GetParam() != SystemDesign::kLogical) {
    ASSERT_EQ(table_->primary()->num_partitions(), 4u);
    for (PartitionId p = 0; p < 4; ++p) {
      EXPECT_EQ(table_->primary()->subtree(p)->num_entries(), 1u);
    }
  }
  EXPECT_EQ(table_->primary()->num_entries(), 4u);
}

TEST_P(EngineTest, MultiActionTransactionAllOrNothing) {
  // Second action fails (duplicate); the first action's insert must be
  // compensated.
  ASSERT_TRUE(Insert(700, "pre-existing").ok());
  TxnRequest req;
  const std::string k1 = KeyU32(100), k2 = KeyU32(700);
  req.Add(0, "t", k1,
          [k1](ExecContext& ctx) { return ctx.Insert(k1, "new"); });
  req.Add(1, "t", k2,
          [k2](ExecContext& ctx) { return ctx.Insert(k2, "dup"); });
  EXPECT_FALSE(engine_->Execute(req).ok());

  std::string out;
  EXPECT_FALSE(Read(100, &out).ok()) << "aborted insert must be undone";
  ASSERT_TRUE(Read(700, &out).ok());
  EXPECT_EQ(out, "pre-existing");
}

TEST_P(EngineTest, MultiPhaseDataflow) {
  ASSERT_TRUE(Insert(42, "answer").ok());
  auto state = std::make_shared<std::string>();
  TxnRequest req;
  const std::string k1 = KeyU32(42), k2 = KeyU32(800);
  req.Add(0, "t", k1, [k1, state](ExecContext& ctx) {
    return ctx.Read(k1, state.get());
  });
  req.Add(1, "t", k2, [k2, state](ExecContext& ctx) {
    return ctx.Insert(k2, "copied-" + *state);
  });
  ASSERT_TRUE(engine_->Execute(req).ok());
  std::string out;
  ASSERT_TRUE(Read(800, &out).ok());
  EXPECT_EQ(out, "copied-answer");
}

TEST_P(EngineTest, ScanRangeWithinPartition) {
  for (std::uint32_t k = 100; k < 120; ++k) {
    ASSERT_TRUE(Insert(k, "s" + std::to_string(k)).ok());
  }
  auto seen = std::make_shared<std::vector<std::uint32_t>>();
  TxnRequest req;
  const std::string lo = KeyU32(105), hi = KeyU32(110);
  req.Add(0, "t", lo, [lo, hi, seen](ExecContext& ctx) {
    return ctx.ScanRange(lo, hi, [&](Slice k, Slice) {
      seen->push_back(DecodeU32(k));
      return true;
    });
  });
  ASSERT_TRUE(engine_->Execute(req).ok());
  EXPECT_EQ(*seen, (std::vector<std::uint32_t>{105, 106, 107, 108, 109}));
}

TEST_P(EngineTest, ManyInsertsSurviveSplitsEverywhere) {
  for (std::uint32_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(Insert(k, std::string(64, 'd')).ok());
  }
  EXPECT_EQ(table_->primary()->num_entries(), 3000u);
  ASSERT_TRUE(table_->primary()->CheckIntegrity().ok());
  std::string out;
  for (std::uint32_t k = 0; k < 3000; k += 131) {
    ASSERT_TRUE(Read(k, &out).ok()) << k;
  }
}

TEST_P(EngineTest, HeapOwnershipDisciplineEnforced) {
  for (std::uint32_t k = 0; k < 1000; ++k) {
    ASSERT_TRUE(Insert(k, std::string(100, 'h')).ok());
  }
  switch (GetParam()) {
    case SystemDesign::kPlpPartition: {
      // Every heap page is owned by exactly one partition uid.
      BufferPool* pool = engine_->db().pool();
      for (PageId pid : table_->heap()->AllPages()) {
        Page* page = pool->FixUnlocked(pid);
        ASSERT_NE(page, nullptr);
        EXPECT_NE(page->owner_tag(), UINT32_MAX);
      }
      break;
    }
    case SystemDesign::kPlpLeaf: {
      // Records reachable via the index live on pages owned by the leaf
      // that points at them.
      MRBTree* primary = table_->primary();
      BufferPool* pool = engine_->db().pool();
      for (PartitionId p = 0; p < primary->num_partitions(); ++p) {
        BTree* sub = primary->subtree(p);
        sub->ForEachEntry([&](Slice key, Slice rid_bytes) {
          Rid rid;
          std::memcpy(&rid.page_id, rid_bytes.data(), 4);
          std::memcpy(&rid.slot, rid_bytes.data() + 4, 2);
          Page* heap_page = pool->FixUnlocked(rid.page_id);
          ASSERT_NE(heap_page, nullptr);
          const std::uint32_t owner_leaf =
              *reinterpret_cast<const std::uint32_t*>(heap_page->data() + 8);
          EXPECT_EQ(owner_leaf, sub->LeafFor(key))
              << "heap page must be owned by the pointing leaf";
        });
      }
      break;
    }
    default:
      break;
  }
}

TEST_P(EngineTest, PlpDesignsAcquireNoIndexLatches) {
  CsProfiler::Global().Reset();
  for (std::uint32_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(Insert(k, "x").ok());
  }
  std::string out;
  for (std::uint32_t k = 0; k < 500; k += 7) {
    ASSERT_TRUE(Read(k, &out).ok());
  }
  CsCounts counts = CsProfiler::Global().Collect();
  const std::uint64_t idx =
      counts.latches[static_cast<int>(PageClass::kIndex)];
  const std::uint64_t heap =
      counts.latches[static_cast<int>(PageClass::kHeap)];
  switch (GetParam()) {
    case SystemDesign::kConventional:
    case SystemDesign::kLogical:
      EXPECT_GT(idx, 0u);
      EXPECT_GT(heap, 0u);
      break;
    case SystemDesign::kPlpRegular:
      EXPECT_EQ(idx, 0u);
      EXPECT_GT(heap, 0u);  // heap still latched
      break;
    case SystemDesign::kPlpPartition:
    case SystemDesign::kPlpLeaf:
      EXPECT_EQ(idx, 0u);
      EXPECT_EQ(heap, 0u);  // fully latch-free data access
      break;
  }
}

TEST_P(EngineTest, SecondaryIndexMaintained) {
  // Secondary key = first byte of the payload.
  ASSERT_TRUE(table_
                  ->AddSecondary("by_prefix",
                                 [](Slice, Slice payload) {
                                   return std::string(1, payload.data()[0]);
                                 })
                  .ok());
  ASSERT_TRUE(Insert(1, "apple").ok());
  ASSERT_TRUE(Insert(2, "avocado").ok());
  ASSERT_TRUE(Insert(3, "banana").ok());

  Table::Secondary* sec = table_->secondary("by_prefix");
  ASSERT_NE(sec, nullptr);
  int a_count = 0;
  ASSERT_TRUE(sec->index->ScanFrom("a", [&](Slice k, Slice) {
    if (k.data()[0] != 'a') return false;
    ++a_count;
    return true;
  }).ok());
  EXPECT_EQ(a_count, 2);

  ASSERT_TRUE(Delete(2).ok());
  a_count = 0;
  ASSERT_TRUE(sec->index->ScanFrom("a", [&](Slice k, Slice) {
    if (k.data()[0] != 'a') return false;
    ++a_count;
    return true;
  }).ok());
  EXPECT_EQ(a_count, 1);
}

TEST_P(EngineTest, GetStatsReflectsWork) {
  ASSERT_TRUE(Insert(9, "earlier").ok());  // admitted before the window
  const StatsSnapshot before = engine_->GetStats();
  ASSERT_TRUE(Insert(10, "v").ok());
  ASSERT_TRUE(Update(10, "v2").ok());
  std::string out;
  ASSERT_TRUE(Read(10, &out).ok());
  EXPECT_FALSE(Read(404, &out).ok());  // aborts

  const StatsSnapshot stats = engine_->GetStats();
  // The four Executes above went through the admission gate; everything
  // drained, so nothing is still in flight.
  EXPECT_EQ(stats.counter("admission.admitted") -
                before.counter("admission.admitted"),
            4u);
  // Admissions are counters, so a DeltaSince window holds only its own.
  const StatsSnapshot window = stats.DeltaSince(before);
  EXPECT_EQ(window.counter("admission.admitted"), 4u);
  EXPECT_EQ(window.counter("admission.rejected"), 0u);
  EXPECT_EQ(stats.gauge("admission.inflight"), 0);
  EXPECT_GE(stats.counter("txn.commits") - before.counter("txn.commits"), 3u);
  EXPECT_GE(stats.counter("txn.aborts") - before.counter("txn.aborts"), 1u);
  // After drain every begun transaction resolved one way or the other.
  EXPECT_EQ(stats.counter("txn.begins"),
            stats.counter("txn.commits") + stats.counter("txn.aborts"));
  EXPECT_EQ(stats.gauge("txn.active"), 0);
  EXPECT_GT(stats.counter("buffer_pool.hits"), 0u);
  // In-memory pools never steal frames, so no index slot can leak.
  EXPECT_EQ(stats.counter("buffer_pool.leaked_index_slots"), 0u);
  if (GetParam() != SystemDesign::kConventional) {
    // Partitioned designs route through the partition manager; these
    // single-action transactions all stay single-site.
    EXPECT_GE(stats.counter("partition.txns") -
                  before.counter("partition.txns"),
              4u);
    EXPECT_EQ(stats.counter("partition.cross_site_txns") -
                  before.counter("partition.cross_site_txns"),
              0u);
    EXPECT_GE(stats.gauge("partition.workers"), 1);
  }
}

}  // namespace
}  // namespace plp

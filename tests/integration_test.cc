// Cross-module integration tests: end-to-end recovery after a workload and
// MRBTree indexes in the conventional system. The paper's count claims
// across designs are in paper_shape_test.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/sync/cs_profiler.h"
#include "src/workload/tatp.h"

namespace plp {
namespace {

// End-to-end durability: run a workload on a durable directory, crash
// (destroy the engine without Close()), reopen, and verify committed data
// survived while the aborted transaction's insert did not.
TEST(EndToEndRecoveryTest, CommittedWorkSurvivesCrash) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plp_e2e_recovery_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.db.data_dir = dir.string();
  config.db.txn.durable_commits = true;
  {
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

    for (std::uint32_t k = 0; k < 200; ++k) {
      TxnRequest req;
      const std::string key = KeyU32(k);
      req.Add(0, "t", key, [key, k](ExecContext& ctx) {
        return ctx.Insert(key, "value-" + std::to_string(k));
      });
      ASSERT_TRUE(engine->Execute(req).ok());
    }
    // A transaction that aborts: its writes must not surface after restart.
    TxnRequest req;
    const std::string key = KeyU32(1000);
    req.Add(0, "t", key, [key](ExecContext& ctx) {
      PLP_RETURN_IF_ERROR(ctx.Insert(key, "doomed"));
      return Status::Aborted("simulated failure");
    });
    EXPECT_FALSE(engine->Execute(req).ok());
    engine->Stop();
  }  // crash: no Close()

  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  EXPECT_GE(engine->db().recovery_stats().winners, 200u);

  auto read = [&](std::uint32_t k, std::string* payload) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, payload](ExecContext& ctx) {
      return ctx.Read(key, payload);
    });
    return engine->Execute(req);
  };
  std::string payload;
  for (std::uint32_t k = 0; k < 200; k += 17) {
    ASSERT_TRUE(read(k, &payload).ok()) << k;
    EXPECT_EQ(payload, "value-" + std::to_string(k));
  }
  EXPECT_FALSE(read(1000, &payload).ok())
      << "aborted transaction's insert must not be recovered";
  EXPECT_EQ(engine->db().GetTable("t")->primary()->num_entries(), 200u);
  engine->Stop();
  engine.reset();
  std::filesystem::remove_all(dir);
}

// MRBTree in a conventional system (Appendix B): the engine wires the
// multi-rooted index when asked, and the multi-rooted form probes fewer
// index nodes once the single-rooted equivalent needs an extra level.
TEST(MrbtConventionalTest, EngineHonorsUseMrbt) {
  for (bool use_mrbt : {false, true}) {
    EngineConfig config;
    config.design = SystemDesign::kConventional;
    config.use_mrbt = use_mrbt;
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).value();
    engine->Start();
    auto result =
        engine->CreateTable("t", TatpWorkload::BoundariesFor(20000, 8));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value()->primary()->num_partitions(),
              use_mrbt ? 8u : 1u);
    engine->Stop();
  }
}

TEST(MrbtConventionalTest, MrbtReducesProbeDepth) {
  BufferPool pool;
  std::unique_ptr<MRBTree> single, multi;
  ASSERT_TRUE(
      MRBTree::Create(&pool, LatchPolicy::kLatched, {""}, &single).ok());
  ASSERT_TRUE(MRBTree::Create(&pool, LatchPolicy::kLatched,
                              TatpWorkload::BoundariesFor(300000, 16), &multi)
                  .ok());
  const std::string rid(6, 'r');
  for (std::uint32_t k = 1; k <= 300000; ++k) {
    ASSERT_TRUE(single->Insert(KeyU32(k), rid).ok());
    ASSERT_TRUE(multi->Insert(KeyU32(k), rid).ok());
  }
  const int single_height = single->subtree(0)->height();
  int multi_height = 0;
  for (PartitionId p = 0; p < multi->num_partitions(); ++p) {
    multi_height = std::max(multi_height, multi->subtree(p)->height());
  }
  EXPECT_LT(multi_height, single_height)
      << "partitioned sub-trees must be at least one level shallower";

  // Fewer index nodes are visited per probe through the shallower trees.
  CsProfiler::Global().Reset();
  std::string out;
  ASSERT_TRUE(single->Probe(KeyU32(150000), &out).ok());
  const std::uint64_t single_latches =
      CsProfiler::Global().Collect().latches[static_cast<int>(
          PageClass::kIndex)];
  CsProfiler::Global().Reset();
  ASSERT_TRUE(multi->Probe(KeyU32(150000), &out).ok());
  const std::uint64_t multi_latches =
      CsProfiler::Global().Collect().latches[static_cast<int>(
          PageClass::kIndex)];
  EXPECT_LT(multi_latches, single_latches);
}

}  // namespace
}  // namespace plp

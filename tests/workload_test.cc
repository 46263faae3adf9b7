// Workload tests: TATP, TPC-B, TPC-C-lite and the microbenchmarks run
// correctly on every design; TPC-B money is conserved.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/key_encoding.h"
#include "src/workload/microbench.h"
#include "src/workload/tatp.h"
#include "src/workload/tpcb.h"
#include "src/workload/tpcc.h"
#include "src/workload/workload_driver.h"

namespace plp {
namespace {

std::unique_ptr<Engine> MakeEngine(SystemDesign design) {
  EngineConfig config;
  config.design = design;
  config.num_workers = 2;
  auto created = CreateEngine(config);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  return engine;
}

class TatpAllDesignsTest : public ::testing::TestWithParam<SystemDesign> {};

INSTANTIATE_TEST_SUITE_P(
    Designs, TatpAllDesignsTest,
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

TEST_P(TatpAllDesignsTest, LoadAndRunMix) {
  auto engine = MakeEngine(GetParam());
  TatpConfig config;
  config.subscribers = 500;
  config.partitions = 2;
  TatpWorkload tatp(engine.get(), config);
  ASSERT_TRUE(tatp.Load().ok());

  Table* subscriber = engine->db().GetTable(TatpWorkload::kSubscriber);
  ASSERT_NE(subscriber, nullptr);
  EXPECT_EQ(subscriber->primary()->num_entries(), 500u);

  Rng rng(1);
  int committed = 0;
  for (int i = 0; i < 2000; ++i) {
    TxnRequest req = tatp.NextTransaction(rng);
    if (engine->Execute(req).ok()) ++committed;
  }
  // Most transactions commit (only lock-timeout aborts are possible).
  EXPECT_GT(committed, 1900);
  ASSERT_TRUE(subscriber->primary()->CheckIntegrity().ok());
  engine->Stop();
}

TEST(TatpTest, KeysEncodeHierarchically) {
  // CallFwd keys for one subscriber sort inside the subscriber's range.
  const std::string s_lo = TatpWorkload::CallFwdKey(5, 1, 0);
  const std::string s_hi = TatpWorkload::CallFwdKey(5, 4, 16);
  const std::string next_sub = TatpWorkload::CallFwdKey(6, 1, 0);
  EXPECT_LT(Slice(s_lo), Slice(s_hi));
  EXPECT_LT(Slice(s_hi), Slice(next_sub));
}

TEST(TatpTest, BoundariesCoverKeySpace) {
  auto boundaries = TatpWorkload::BoundariesFor(1000, 4);
  ASSERT_EQ(boundaries.size(), 4u);
  EXPECT_EQ(boundaries[0], "");
  EXPECT_EQ(DecodeU32(boundaries[1]), 251u);
  EXPECT_EQ(DecodeU32(boundaries[2]), 501u);
}

TEST(TatpTest, GetSubscriberDataReadsExistingRow) {
  auto engine = MakeEngine(SystemDesign::kPlpLeaf);
  TatpConfig config;
  config.subscribers = 100;
  config.partitions = 2;
  TatpWorkload tatp(engine.get(), config);
  ASSERT_TRUE(tatp.Load().ok());
  TxnRequest req = tatp.GetSubscriberData(50);
  EXPECT_TRUE(engine->Execute(req).ok());
  engine->Stop();
}

TEST(TatpTest, UpdateLocationChangesVlr) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  TatpConfig config;
  config.subscribers = 100;
  config.partitions = 2;
  TatpWorkload tatp(engine.get(), config);
  ASSERT_TRUE(tatp.Load().ok());
  TxnRequest req = tatp.UpdateLocation(42, 0xDEADBEEF);
  ASSERT_TRUE(engine->Execute(req).ok());

  // Verify through a direct read.
  auto out = std::make_shared<std::string>();
  TxnRequest verify;
  const std::string key = TatpWorkload::SubscriberKey(42);
  verify.Add(0, TatpWorkload::kSubscriber, key, [key, out](ExecContext& ctx) {
    return ctx.Read(key, out.get());
  });
  ASSERT_TRUE(engine->Execute(verify).ok());
  EXPECT_EQ(TatpWorkload::VlrFromRecord(*out), 0xDEADBEEFu);
  engine->Stop();
}

TEST(TatpTest, InsertDeleteHeavyDrivesSmos) {
  auto engine = MakeEngine(SystemDesign::kPlpLeaf);
  TatpConfig config;
  config.subscribers = 2000;
  config.partitions = 2;
  TatpWorkload tatp(engine.get(), config);
  ASSERT_TRUE(tatp.Load().ok());
  Table* cf = engine->db().GetTable(TatpWorkload::kCallFwd);
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    TxnRequest req = tatp.NextInsertDeleteHeavy(rng);
    ASSERT_TRUE(engine->Execute(req).ok());
  }
  ASSERT_TRUE(cf->primary()->CheckIntegrity().ok());
  engine->Stop();
}

class TpcbAllDesignsTest : public ::testing::TestWithParam<SystemDesign> {};

INSTANTIATE_TEST_SUITE_P(
    Designs, TpcbAllDesignsTest,
    ::testing::Values(SystemDesign::kConventional, SystemDesign::kLogical,
                      SystemDesign::kPlpRegular, SystemDesign::kPlpLeaf),
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

TEST_P(TpcbAllDesignsTest, MoneyIsConserved) {
  auto engine = MakeEngine(GetParam());
  TpcbConfig config;
  config.branches = 4;
  config.tellers_per_branch = 4;
  config.accounts_per_branch = 50;
  config.partitions = 2;
  TpcbWorkload tpcb(engine.get(), config);
  ASSERT_TRUE(tpcb.Load().ok());

  Rng rng(5);
  int committed = 0;
  for (int i = 0; i < 500; ++i) {
    TxnRequest req = tpcb.NextTransaction(rng);
    if (engine->Execute(req).ok()) ++committed;
  }
  EXPECT_GT(committed, 450);

  // Invariant: sum(branch balances) == sum(teller balances)
  //         == sum(account balances) — every delta hit all three.
  auto sum_table = [&](const char* name) {
    std::int64_t total = 0;
    Table* table = engine->db().GetTable(name);
    table->heap()->Scan([&](Rid, Slice rec) {
      total += TpcbWorkload::BalanceOf(rec);
    });
    return total;
  };
  const std::int64_t branches = sum_table(TpcbWorkload::kBranch);
  const std::int64_t tellers = sum_table(TpcbWorkload::kTeller);
  const std::int64_t accounts = sum_table(TpcbWorkload::kAccount);
  EXPECT_EQ(branches, tellers);
  EXPECT_EQ(branches, accounts);
  engine->Stop();
}

TEST(TpcbTest, UnpaddedBranchesShareHeapPages) {
  auto engine = MakeEngine(SystemDesign::kLogical);
  TpcbConfig config;
  config.branches = 64;
  config.tellers_per_branch = 1;
  config.accounts_per_branch = 1;
  config.pad_records = false;
  TpcbWorkload tpcb(engine.get(), config);
  ASSERT_TRUE(tpcb.Load().ok());
  // 64 unpadded 32B branch records fit on one or two heap pages — the
  // false-sharing setup of Figure 7.
  Table* branch = engine->db().GetTable(TpcbWorkload::kBranch);
  EXPECT_LE(branch->heap()->num_pages(), 2u);
  engine->Stop();
}

TEST(TpcbTest, PaddingSpreadsBranches) {
  auto engine = MakeEngine(SystemDesign::kLogical);
  TpcbConfig config;
  config.branches = 16;
  config.tellers_per_branch = 1;
  config.accounts_per_branch = 1;
  config.pad_records = true;
  TpcbWorkload tpcb(engine.get(), config);
  ASSERT_TRUE(tpcb.Load().ok());
  Table* branch = engine->db().GetTable(TpcbWorkload::kBranch);
  EXPECT_GE(branch->heap()->num_pages(), 8u);
  engine->Stop();
}

TEST(TpccTest, LoadAndRunBothTransactions) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  TpccConfig config;
  config.warehouses = 2;
  config.districts_per_wh = 2;
  config.customers_per_district = 20;
  config.items = 100;
  config.partitions = 2;
  TpccWorkload tpcc(engine.get(), config);
  ASSERT_TRUE(tpcc.Load().ok());

  Rng rng(7);
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    TxnRequest req = tpcc.NextTransaction(rng);
    if (engine->Execute(req).ok()) ++committed;
  }
  EXPECT_GT(committed, 190);
  Table* orders = engine->db().GetTable(TpccWorkload::kOrder);
  EXPECT_GT(orders->primary()->num_entries(), 0u);
  engine->Stop();
}

TEST(MicrobenchTest, ProbeInsertMixRespectsPercentage) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  ProbeInsertConfig config;
  config.initial_rows = 1000;
  config.partitions = 2;
  config.insert_pct = 0;  // pure probes
  ProbeInsertMix micro(engine.get(), config);
  ASSERT_TRUE(micro.Load().ok());
  Table* table = engine->db().GetTable(ProbeInsertMix::kTable);
  const std::uint64_t before = table->primary()->num_entries();
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    TxnRequest req = micro.NextTransaction(rng);
    ASSERT_TRUE(engine->Execute(req).ok());
  }
  EXPECT_EQ(table->primary()->num_entries(), before);

  micro.set_insert_pct(100);  // pure inserts
  for (int i = 0; i < 500; ++i) {
    TxnRequest req = micro.NextTransaction(rng);
    ASSERT_TRUE(engine->Execute(req).ok());
  }
  EXPECT_GT(table->primary()->num_entries(), before);
  engine->Stop();
}

TEST(MicrobenchTest, BalanceProbeSkewTargetsHotRange) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  BalanceProbeConfig config;
  config.subscribers = 1000;
  config.record_size = 100;
  config.partitions = 4;
  BalanceProbe micro(engine.get(), config);
  ASSERT_TRUE(micro.Load().ok());
  micro.SetSkew(true, 0.1);
  Rng rng(11);
  int hot = 0;
  constexpr int kProbes = 2000;
  Table* table = engine->db().GetTable(BalanceProbe::kTable);
  (void)table;
  for (int i = 0; i < kProbes; ++i) {
    TxnRequest req = micro.NextTransaction(rng);
    const std::uint32_t s = DecodeU32(req.phases[0].actions[0].key);
    if (s <= 100) ++hot;
    ASSERT_TRUE(engine->Execute(req).ok());
  }
  // ~50% skewed + ~10% of uniform = ~55%.
  EXPECT_GT(hot, kProbes * 2 / 5);
  engine->Stop();
}

TEST(WorkloadDriverTest, RunsForDurationAndCounts) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  TatpConfig config;
  config.subscribers = 200;
  config.partitions = 2;
  TatpWorkload tatp(engine.get(), config);
  ASSERT_TRUE(tatp.Load().ok());

  DriverOptions options;
  options.num_threads = 2;
  options.duration = std::chrono::milliseconds(200);
  DriverResult result = RunWorkload(
      engine.get(), [&](Rng& rng) { return tatp.NextTransaction(rng); },
      options);
  EXPECT_GT(result.committed, 100u);
  // Every commit lands in exactly one throughput sample.
  std::uint64_t sampled = 0;
  for (const DriverResult::Sample& s : result.samples) sampled += s.committed;
  EXPECT_EQ(sampled, result.committed);
  EXPECT_GT(result.ktps(), 0.0);
  EXPECT_GT(result.cs_per_txn(), 0.0);
  engine->Stop();
}

TEST(WorkloadDriverTest, TimedRunCollectsSamplesAndFiresEvents) {
  auto engine = MakeEngine(SystemDesign::kPlpRegular);
  BalanceProbeConfig config;
  config.subscribers = 500;
  config.record_size = 100;
  config.partitions = 2;
  BalanceProbe micro(engine.get(), config);
  ASSERT_TRUE(micro.Load().ok());

  DriverOptions options;
  options.num_threads = 2;
  options.duration = std::chrono::milliseconds(300);
  bool event_fired = false;
  DriverResult result = RunWorkloadTimed(
      engine.get(), [&](Rng& rng) { return micro.NextTransaction(rng); },
      options, std::chrono::milliseconds(50),
      {{std::chrono::milliseconds(100), [&] { event_fired = true; }}});
  EXPECT_TRUE(event_fired);
  EXPECT_GT(result.committed, 0u);
  // One sample per 50 ms window plus the closing one; the windows
  // partition the run, so their commits add up to the total exactly.
  ASSERT_GE(result.samples.size(), 4u);
  std::uint64_t sampled = 0;
  double last_at = 0;
  for (const DriverResult::Sample& s : result.samples) {
    sampled += s.committed;
    EXPECT_GT(s.at_seconds, last_at);
    last_at = s.at_seconds;
    EXPECT_GE(s.ktps, 0.0);
  }
  EXPECT_EQ(sampled, result.committed);
  engine->Stop();
}

}  // namespace
}  // namespace plp

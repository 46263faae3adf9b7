// Hot-spot rebalancing scenario (the "slashdot effect" of Section 3.2.1):
// a read workload suddenly concentrates on 10% of the key space; the
// automatic repartitioner detects the imbalance and slices the hot
// MRBTree partition — while the system keeps serving transactions.
//
//   $ ./example_hotspot_rebalancing
#include <cstdio>

#include "src/common/key_encoding.h"
#include "src/engine/partitioned_engine.h"
#include "src/engine/repartitioner.h"
#include "src/workload/microbench.h"
#include "src/workload/workload_driver.h"

using namespace plp;  // NOLINT — example brevity

int main() {
  EngineConfig config;
  config.design = SystemDesign::kPlpRegular;
  config.num_workers = 4;
  PartitionedEngine engine(config);
  engine.Start();

  BalanceProbeConfig probe_config;
  probe_config.subscribers = 20000;
  probe_config.record_size = 200;
  probe_config.partitions = 4;
  BalanceProbe workload(&engine, probe_config);
  if (Status st = workload.Load(); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }
  Table* table = engine.db().GetTable(BalanceProbe::kTable);

  auto print_boundaries = [&](const char* when) {
    std::printf("%s partition boundaries:", when);
    for (const auto& b : engine.pm().Boundaries(table)) {
      std::printf(" %u", b.empty() ? 0 : DecodeU32(b));
    }
    std::printf("\n");
  };
  print_boundaries("before");

  // Background rebalancer, as a production deployment would run it.
  RepartitionerOptions reb_options;
  reb_options.min_samples = 2000;
  reb_options.imbalance_factor = 1.8;
  reb_options.interval = std::chrono::milliseconds(100);
  Repartitioner rebalancer(&engine, reb_options);
  rebalancer.Start();

  DriverOptions options;
  options.num_threads = 2;
  options.duration = std::chrono::milliseconds(2500);
  DriverResult r = RunWorkloadTimed(
      &engine, [&](Rng& rng) { return workload.NextTransaction(rng); },
      options, std::chrono::milliseconds(250),
      {{std::chrono::milliseconds(800), [&] {
          std::printf("  >> skew flips: 50%% of probes now hit the first "
                      "10%% of keys\n");
          workload.SetSkew(true, 0.1);
        }}});
  rebalancer.Stop();

  std::printf("\nthroughput series (Ktps per 250ms window):\n ");
  for (const auto& s : r.samples) std::printf(" %6.1f", s.ktps);
  std::printf("\ncommitted: %llu, rebalances performed: %llu\n",
              static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(rebalancer.rebalances()));
  print_boundaries("after");
  std::printf("(a new boundary inside the hot range means the rebalancer\n"
              " sliced the hot partition — cheap under PLP: metadata only)\n");

  engine.Stop();
  return 0;
}

// Figure 8: throughput time-series while the workload's skew changes and
// the partitioned systems rebalance. One second into the run, 50% of the
// probes start hitting the first 10% of the key space; the partitioned
// designs repartition so the hot range is spread across half the
// partitions. The dip during repartitioning measures the cost: none for
// Conventional (no partitions), routing-only for Logical, metadata-only
// for PLP-Regular/PLP-Leaf, heap reorganization for PLP-Partition.
#include "bench/paper_shape.h"
#include "src/workload/microbench.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader("Throughput (Ktps) during skew change + repartition",
                     "Figure 8");
  const SystemDesign designs[] = {
      SystemDesign::kConventional, SystemDesign::kLogical,
      SystemDesign::kPlpRegular, SystemDesign::kPlpPartition,
      SystemDesign::kPlpLeaf};

  for (SystemDesign design : designs) {
    auto engine = bench::MakeEngine(design, 4);
    BalanceProbeConfig config;
    config.subscribers = 100000;  // ~50MB at 500B records, the paper's scale
    config.record_size = 500;
    config.partitions = 4;
    BalanceProbe micro(engine.get(), config);
    if (!micro.Load().ok()) continue;

    DriverOptions options;
    options.num_threads = 2;  // "2 clients" as in the paper
    options.duration = std::chrono::milliseconds(3000);
    Engine* eng = engine.get();
    std::vector<TimedEvent> events;
    events.push_back({std::chrono::milliseconds(1000), [&micro] {
                        micro.SetSkew(true, 0.1);
                      }});
    if (design != SystemDesign::kConventional) {
      events.push_back({std::chrono::milliseconds(1200), [&micro, eng] {
                          (void)eng->Repartition(
                              BalanceProbe::kTable,
                              micro.HotColdBoundaries(0.1));
                        }});
    }
    DriverResult r = RunWorkloadTimed(
        eng, [&](Rng& rng) { return micro.NextTransaction(rng); }, options,
        std::chrono::milliseconds(100), std::move(events));

    std::printf("%-12s", SystemDesignName(design));
    for (const auto& s : r.samples) {
      std::printf(" %6.1f", s.ktps);
    }
    std::printf("\n");
    engine->Stop();
  }
  std::printf(
      "\n(one column per 100ms window; skew flips at t=1.0s, repartition\n"
      "triggers at t=1.2s)\n");
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

// Figure 10 (Appendix B): time breakdown of a probe/insert microbenchmark
// on the conventional system as the insert percentage grows, with a
// Normal (single-rooted) vs MRBT primary index. Single-rooted ARIES/KVL
// trees allow one SMO at a time, so SMO waiting grows with the insert
// rate; MRBTrees parallelize SMOs across sub-trees.
#include "bench/paper_shape.h"
#include "src/metrics/time_breakdown.h"
#include "src/workload/microbench.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader(
      "Time breakdown vs insert %, conventional: Normal vs MRBT",
      "Figure 10");
  for (unsigned insert_pct : {0u, 20u, 40u, 60u, 80u, 100u}) {
    std::printf("--- %u%% inserts ---\n", insert_pct);
    for (bool use_mrbt : {false, true}) {
      auto engine =
          bench::MakeEngine(SystemDesign::kConventional, 4, use_mrbt);
      ProbeInsertConfig config;
      config.initial_rows = 20000;
      config.partitions = 8;
      config.insert_pct = insert_pct;
      ProbeInsertMix micro(engine.get(), config);
      if (!micro.Load().ok()) continue;
      DriverOptions options;
      options.num_threads = 4;
      options.duration = bench::kWindow;
      DriverResult r = RunWorkload(
          engine.get(), [&](Rng& rng) { return micro.NextTransaction(rng); },
          options);
      TimeBreakdown b =
          MakeTimeBreakdown(r.cs_delta, r.committed, r.thread_time_ns);
      std::printf("%s\n",
                  FormatBreakdownRow(use_mrbt ? "MRBT" : "Normal", b)
                      .c_str());
      engine->Stop();
    }
  }
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

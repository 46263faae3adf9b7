// Figure 9 (Appendix B): peak TATP throughput of the conventional and
// logically-partitioned systems with and without MRBTree indexes. The
// multi-rooted form removes one index level and the root hotspot,
// buying ~10% in the paper.
#include "bench/paper_shape.h"
#include "src/workload/tatp.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader("TATP throughput: Normal vs MRBT primary indexes",
                     "Figure 9");
  std::printf("%-12s %10s %10s %10s\n", "design", "Normal", "MRBT", "gain");
  for (SystemDesign design :
       {SystemDesign::kConventional, SystemDesign::kLogical}) {
    double ktps[2] = {0, 0};
    for (int mrbt = 0; mrbt < 2; ++mrbt) {
      auto engine = bench::MakeEngine(design, 4, /*use_mrbt=*/mrbt == 1);
      TatpConfig config;
      config.subscribers = 20000;
      config.partitions = 8;
      TatpWorkload tatp(engine.get(), config);
      if (!tatp.Load().ok()) continue;
      DriverOptions options;
      options.num_threads = 4;
      options.duration = bench::kWindow;
      DriverResult r = RunWorkload(
          engine.get(), [&](Rng& rng) { return tatp.NextTransaction(rng); },
          options);
      ktps[mrbt] = r.ktps();
      engine->Stop();
    }
    std::printf("%-12s %10.1f %10.1f %9.1f%%\n", SystemDesignName(design),
                ktps[0], ktps[1],
                ktps[0] > 0 ? 100.0 * (ktps[1] - ktps[0]) / ktps[0] : 0.0);
  }
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

// Figure 6: time breakdown per transaction for an insert/delete-heavy
// workload on the TATP CALL_FORWARDING table. Splits cause SMOs and
// index-latch contention in the conventional and logical designs; PLP
// eliminates both the latch waits and the SMO serialization (no index
// latch and no SMO-mutex entry on the PLP rows: tests/paper_shape_test.cc).
#include "bench/paper_shape.h"
#include "src/metrics/time_breakdown.h"
#include "src/workload/tatp.h"

namespace plp {
namespace {

constexpr SystemDesign kDesigns[] = {
    SystemDesign::kConventional, SystemDesign::kLogical,
    SystemDesign::kPlpRegular, SystemDesign::kPlpLeaf};

void Run() {
  bench::PrintHeader(
      "Time breakdown per txn, insert/delete-heavy CallFwd workload",
      "Figure 6");
  std::printf("--- counts per txn (fixed-count run) ---\n");
  for (SystemDesign design : kDesigns) {
    const bench::CountRun counts = bench::MeasureCounts(
        {SystemDesignName(design), design},
        bench::CountWorkload::kTatpInsertDelete, bench::kCountTxns);
    std::printf("%-12s idx-latch %6.2f  smo-mutex %5.3f\n",
                SystemDesignName(design), counts.Latches(PageClass::kIndex),
                counts.SmoMutex());
  }
  for (int threads : {2, 4, 8}) {
    std::printf("--- %d client threads ---\n", threads);
    for (SystemDesign design : kDesigns) {
      // Conventional is thread-per-transaction: size its submission pool
      // to the widest client sweep so it never caps closed-loop
      // concurrency below the paper's baseline.
      auto engine = bench::MakeEngine(
          design, design == SystemDesign::kConventional ? 8 : 4);
      TatpWorkload tatp(engine.get(), bench::CountTatpConfig());
      bench::MustLoad(tatp.Load(), "TATP");
      DriverOptions options;
      options.num_threads = threads;
      options.duration = bench::kWindow;
      DriverResult r = RunWorkload(
          engine.get(),
          [&](Rng& rng) { return tatp.NextInsertDeleteHeavy(rng); },
          options);
      TimeBreakdown b =
          MakeTimeBreakdown(r.cs_delta, r.committed, r.thread_time_ns);
      std::printf("%s\n",
                  FormatBreakdownRow(SystemDesignName(design), b).c_str());
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

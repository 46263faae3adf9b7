// Figure 7: time breakdown per transaction for TPC-B with *unpadded*
// records, so hot branch/teller rows share heap pages. Conventional,
// Logical and PLP-Regular suffer heap-latch waits on those pages
// (false sharing); PLP-Leaf is immune because each heap page belongs to
// exactly one leaf/partition (it takes no heap latch at all:
// tests/paper_shape_test.cc). Conventional's transactions also queue on
// the hot branch and teller record locks (the lock-wait column).
#include "bench/paper_shape.h"
#include "src/metrics/time_breakdown.h"
#include "src/workload/tpcb.h"

namespace plp {
namespace {

constexpr SystemDesign kDesigns[] = {
    SystemDesign::kConventional, SystemDesign::kLogical,
    SystemDesign::kPlpRegular, SystemDesign::kPlpLeaf};

void Run() {
  bench::PrintHeader(
      "Time breakdown per txn, TPC-B with heap-page false sharing",
      "Figure 7");
  std::printf("--- counts per txn (fixed-count run) ---\n");
  for (SystemDesign design : kDesigns) {
    const bench::CountRun counts =
        bench::MeasureCounts({SystemDesignName(design), design},
                             bench::CountWorkload::kTpcb, bench::kCountTxns);
    std::printf("%-12s heap-latch %6.2f\n", SystemDesignName(design),
                counts.Latches(PageClass::kHeap));
  }
  for (int threads : {2, 4, 8}) {
    std::printf("--- %d client threads ---\n", threads);
    for (SystemDesign design : kDesigns) {
      // Conventional is thread-per-transaction: size its submission pool
      // to the widest client sweep so it never caps closed-loop
      // concurrency below the paper's baseline.
      auto engine = bench::MakeEngine(
          design, design == SystemDesign::kConventional ? 8 : 4);
      const TpcbConfig config = bench::CountTpcbConfig();
      TpcbWorkload tpcb(engine.get(), config);
      bench::MustLoad(tpcb.Load(), "TPC-B");
      DriverOptions options;
      options.num_threads = threads;
      options.duration = bench::kWindow;
      DriverResult r = RunWorkload(
          engine.get(), [&](Rng& rng) { return tpcb.NextTransaction(rng); },
          options);
      TimeBreakdown b =
          MakeTimeBreakdown(r.cs_delta, r.committed, r.thread_time_ns);
      std::printf("%s\n",
                  FormatBreakdownRow(SystemDesignName(design), b).c_str());
      // Structural false sharing: how few pages hold all the hot rows.
      if (design == SystemDesign::kConventional) {
        Table* branch = engine->db().GetTable(TpcbWorkload::kBranch);
        Table* teller = engine->db().GetTable(TpcbWorkload::kTeller);
        std::printf(
            "    (hot-row concentration: %u branches on %zu heap pages, "
            "%u tellers on %zu)\n",
            config.branches, branch->heap()->num_pages(),
            config.branches * config.tellers_per_branch,
            teller->heap()->num_pages());
      }
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

// Figures 1 and 3: critical sections per transaction when running the
// TATP mix, across Baseline (no SLI), SLI, Logical-only, PLP and PLP-Leaf
// (Figure 1), and the page latches among them by page type (Figure 3).
// One fixed-count run per design prints both tables; the paper's claims
// on these numbers are asserted in tests/paper_shape_test.cc.
#include "bench/paper_shape.h"

namespace plp {
namespace {

void Run() {
  constexpr int kNumVariants = std::size(bench::kFig1Variants);
  bench::CountRun runs[kNumVariants];
  for (int i = 0; i < kNumVariants; ++i) {
    runs[i] = bench::MeasureCounts(bench::kFig1Variants[i],
                                   bench::CountWorkload::kTatp,
                                   bench::kCountTxns);
  }

  bench::PrintHeader("Critical sections per transaction, TATP mix",
                     "Figure 1");
  std::printf("%-16s", "design");
  for (int c = 0; c < kNumCsCategories; ++c) {
    std::printf(" %9.9s", CsCategoryName(static_cast<CsCategory>(c)));
  }
  std::printf(" |   (CS entries per transaction)\n");
  for (int i = 0; i < kNumVariants; ++i) {
    const bench::CountRun& r = runs[i];
    std::printf("%-16s", bench::kFig1Variants[i].label);
    for (int c = 0; c < kNumCsCategories; ++c) {
      std::printf(" %9.2f", r.Entries(static_cast<CsCategory>(c)));
    }
    std::printf(" | total %9.2f contended %7.2f\n",
                r.PerTxn(r.cs.TotalEntries()),
                r.PerTxn(r.cs.TotalContended()));
  }

  bench::PrintHeader("Page latches per transaction by design, TATP",
                     "Figure 3");
  std::printf("%-12s %10s %10s %14s %10s\n", "design", "INDEX", "HEAP",
              "CATALOG/SPACE", "total");
  // Figure 3 compares the four designs; its Conv. is the SLI system
  // (Baseline latches the same pages).
  const double conventional = runs[1].TotalLatches();
  for (int i = 1; i < kNumVariants; ++i) {
    const bench::CountRun& r = runs[i];
    std::printf("%-12s %10.2f %10.2f %14.2f %10.2f",
                SystemDesignName(bench::kFig1Variants[i].design),
                r.Latches(PageClass::kIndex), r.Latches(PageClass::kHeap),
                r.Latches(PageClass::kCatalog), r.TotalLatches());
    if (i == 1) {
      std::printf("\n");
    } else {
      std::printf("   (%.1f%% of Conv.)\n",
                  100.0 * r.TotalLatches() / conventional);
    }
  }
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

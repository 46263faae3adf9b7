// Figure 2: page-latch breakdown by page type (index / heap / catalog)
// for TATP, TPC-B and TPC-C running on the conventional system, from
// fixed-count runs. The paper puts 60-80% of the latches on index pages;
// tests/paper_shape_test.cc records what this tree reproduces.
#include "bench/paper_shape.h"

namespace plp {
namespace {

void PrintRow(const char* label, bench::CountWorkload workload) {
  const bench::CountRun r = bench::MeasureCounts(
      {"Conv.", SystemDesign::kConventional}, workload, bench::kCountTxns);
  const double total = static_cast<double>(r.cs.TotalLatches());
  if (total == 0) return;
  std::printf("%-8s", label);
  for (int c = 0; c < kNumPageClasses; ++c) {
    const auto page_class = static_cast<PageClass>(c);
    std::printf("  %-13s %6.1f%% (%7.2f/txn)", PageClassName(page_class),
                100.0 * static_cast<double>(r.cs.latches[c]) / total,
                r.Latches(page_class));
  }
  std::printf("\n");
}

void Run() {
  bench::PrintHeader("Page latches by page type, conventional system",
                     "Figure 2");
  PrintRow("TATP", bench::CountWorkload::kTatp);
  PrintRow("TPC-B", bench::CountWorkload::kTpcb);
  PrintRow("TPC-C", bench::CountWorkload::kTpcc);
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

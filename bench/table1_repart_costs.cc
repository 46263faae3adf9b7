// Table 1: repartitioning costs when splitting a partition with 466MB of
// 100B records in half (height-3 index, 170 x 32B entries per node).
// Rows come from the Appendix C cost model; below them, a *measured*
// MRBTree slice on a real (smaller) tree confirms the PLP claim that a
// split moves only the boundary path (asserted in
// tests/paper_shape_test.cc; the cost-model rows in cost_model_test).
#include <cstdio>

#include "bench/paper_shape.h"
#include "src/engine/cost_model.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader(
      "Repartitioning costs, 466MB partition split in half", "Table 1");
  CostModelParams p;
  p.height = 3;
  p.entries_per_node = 170;
  p.m = {85, 85, 85};
  p.record_size = 100;
  p.entry_size = 32;

  for (RepartitionDesign d :
       {RepartitionDesign::kPlpRegular, RepartitionDesign::kPlpLeaf,
        RepartitionDesign::kPlpPartition, RepartitionDesign::kSharedNothing,
        RepartitionDesign::kPlpClustered,
        RepartitionDesign::kSharedNothingClustered}) {
    std::printf("%s\n", FormatCostRow(d, p).c_str());
  }

  // Measured slice on a real MRBTree: 200k entries, split in half.
  const bench::SliceRun slice = bench::MeasureSlice();
  std::printf(
      "\nMeasured MRBTree slice (200k entries split in half): %.2f ms,\n"
      "%zu new pages allocated (boundary path only, tree height %d)\n",
      slice.ms, slice.new_pages, slice.height);
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

// Table 2: the repartitioning cost model itself, evaluated for trees of
// height 3 and height 4 to show how Shared-Nothing/PLP-Partition costs
// explode with tree height while PLP-Regular/PLP-Leaf stay flat.
#include <cstdio>

#include "bench/paper_shape.h"
#include "src/engine/cost_model.h"

namespace plp {
namespace {

void PrintFor(int height) {
  CostModelParams p;
  p.height = height;
  p.entries_per_node = 170;
  p.m.assign(static_cast<std::size_t>(height), 85);
  p.record_size = 100;
  p.entry_size = 32;
  std::printf("--- height %d, n=170 entries/node, m_k=85 ---\n", height);
  for (RepartitionDesign d :
       {RepartitionDesign::kPlpRegular, RepartitionDesign::kPlpLeaf,
        RepartitionDesign::kPlpPartition, RepartitionDesign::kSharedNothing,
        RepartitionDesign::kPlpClustered,
        RepartitionDesign::kSharedNothingClustered}) {
    std::printf("%s\n", FormatCostRow(d, p).c_str());
  }
}

void Run() {
  bench::PrintHeader("Repartitioning cost model across tree heights",
                     "Table 2 (Appendix C)");
  PrintFor(3);
  std::printf("\n");
  PrintFor(4);
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

// Figure 12 (Appendix D): time to scan the whole heap file for each PLP
// variant, normalized to the conventional system, with a 4GB buffer pool.
// While everything is memory-resident the designs tie (same live
// records); at 10GB the extra pages of PLP-Leaf turn into extra I/O.
// The resident regime is *measured* on real heap files; the 10GB point
// uses the scan-cost model with a 100:1 I/O-to-memory page cost, the
// substitution for the paper's disk subsystem.
#include <cstdio>

#include "bench/paper_shape.h"
#include "src/buffer/buffer_pool.h"
#include "src/common/clock.h"
#include "src/storage/fragmentation_model.h"
#include "src/storage/heap_file.h"

namespace plp {
namespace {

double MeasureScanNs(HeapFile* heap) {
  const std::uint64_t t0 = NowNanos();
  std::uint64_t bytes = 0;
  heap->Scan([&](Rid, Slice rec) { bytes += rec.size(); });
  const std::uint64_t t1 = NowNanos();
  return static_cast<double>(t1 - t0) + static_cast<double>(bytes) * 0;
}

void Run() {
  bench::PrintHeader("Normalized heap scan time per design", "Figure 12");

  // Measured, memory-resident (50k x 100B records).
  std::printf("Measured (memory-resident, 50000 x 100B records):\n");
  BufferPool pool;
  HeapFile shared(&pool, HeapMode::kShared);
  HeapFile part(&pool, HeapMode::kPartitionOwned);
  HeapFile leaf(&pool, HeapMode::kLeafOwned);
  const std::string rec(100, 'x');
  Rid rid;
  for (std::uint64_t i = 0; i < 50000; ++i) {
    (void)shared.Insert(rec, &rid);
    (void)part.InsertOwned(static_cast<std::uint32_t>(i % 100), rec, &rid);
    (void)leaf.InsertOwned(static_cast<std::uint32_t>(i / 170), rec, &rid);
  }
  const double base = MeasureScanNs(&shared);
  std::printf("  Conventional 1.000  PLP-Regular 1.000  "
              "PLP-Partition %.3f  PLP-Leaf %.3f\n",
              MeasureScanNs(&part) / base, MeasureScanNs(&leaf) / base);

  // Modeled across database sizes with a 4GB buffer pool.
  std::printf("\nModeled (4GB buffer pool, 100B records, I/O cost 100x):\n");
  std::printf("%-8s %14s %14s %14s %14s\n", "size", "Conventional",
              "PLP-Regular", "PLP-Partition", "PLP-Leaf");
  const std::uint64_t sizes[] = {1ull << 20, 10ull << 20, 100ull << 20,
                                 1ull << 30, 10ull << 30};
  const char* size_names[] = {"1MB", "10MB", "100MB", "1GB", "10GB"};
  ScanTimeParams t;
  for (int i = 0; i < 5; ++i) {
    FragmentationParams p;
    p.db_bytes = sizes[i];
    p.record_size = 100;
    p.num_partitions = 100;
    const HeapPageCounts c = ComputeHeapPageCounts(p);
    const double base_cost = ScanCost(c.conventional, t);
    std::printf("%-8s %14.3f %14.3f %14.3f %14.3f\n", size_names[i], 1.0,
                ScanCost(c.plp_regular, t) / base_cost,
                ScanCost(c.plp_partition, t) / base_cost,
                ScanCost(c.plp_leaf, t) / base_cost);
  }
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

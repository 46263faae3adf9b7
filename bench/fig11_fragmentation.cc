// Figure 11 (Appendix D): number of heap pages used by each PLP variant,
// normalized to the conventional system, as database size grows, for
// 100B and 1000B records. Evaluated with the analytic fragmentation
// model (validated against real heap files by the test suite and the
// measured point printed at the bottom).
#include <cstdio>

#include "bench/paper_shape.h"
#include "src/buffer/buffer_pool.h"
#include "src/storage/fragmentation_model.h"
#include "src/storage/heap_file.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader("Normalized heap page counts per design", "Figure 11");
  const std::uint64_t sizes[] = {1ull << 20, 10ull << 20, 100ull << 20,
                                 1ull << 30, 10ull << 30};
  const char* size_names[] = {"1MB", "10MB", "100MB", "1GB", "10GB"};

  for (std::uint32_t record_size : {100u, 1000u}) {
    std::printf("--- %uB records, %u partitions ---\n", record_size,
                record_size == 100 ? 100 : 10);
    std::printf("%-8s %14s %14s %14s %14s\n", "size", "Conventional",
                "PLP-Regular", "PLP-Partition", "PLP-Leaf");
    for (int i = 0; i < 5; ++i) {
      FragmentationParams p;
      p.db_bytes = sizes[i];
      p.record_size = record_size;
      p.num_partitions = record_size == 100 ? 100 : 10;
      const HeapPageCounts c = ComputeHeapPageCounts(p);
      const double base = static_cast<double>(c.conventional);
      std::printf("%-8s %14.3f %14.3f %14.3f %14.3f\n", size_names[i], 1.0,
                  static_cast<double>(c.plp_regular) / base,
                  static_cast<double>(c.plp_partition) / base,
                  static_cast<double>(c.plp_leaf) / base);
    }
  }

  // Measured validation point: build real heap files at small scale.
  std::printf("\nMeasured validation (5000 x 100B records, 10 owners):\n");
  BufferPool pool;
  HeapFile shared(&pool, HeapMode::kShared);
  HeapFile part(&pool, HeapMode::kPartitionOwned);
  HeapFile leaf(&pool, HeapMode::kLeafOwned);
  const std::string rec(100, 'x');
  Rid rid;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    (void)shared.Insert(rec, &rid);
    (void)part.InsertOwned(static_cast<std::uint32_t>(i % 10), rec, &rid);
    (void)leaf.InsertOwned(static_cast<std::uint32_t>(i / 170), rec, &rid);
  }
  const double base = static_cast<double>(shared.num_pages());
  std::printf("  conventional=%zu  plp-partition=%.3fx  plp-leaf=%.3fx\n",
              shared.num_pages(),
              static_cast<double>(part.num_pages()) / base,
              static_cast<double>(leaf.num_pages()) / base);
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

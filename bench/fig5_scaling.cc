// Figure 5: throughput of the read-only TATP GetSubscriberData
// transaction as the client count grows, for Conventional, Logical and
// PLP. The paper's determinant of the scaling curve — unscalable critical
// sections per transaction (right columns, from the fixed-count run of
// bench/paper_shape.h) — is asserted, ordered PLP < Logical <
// Conventional, in tests/paper_shape_test.cc; the Ktps columns depend on
// the host's hardware contexts.
#include "bench/paper_shape.h"

namespace plp {
namespace {

void Run() {
  bench::PrintHeader(
      "GetSubscriberData throughput vs client threads (Ktps)", "Figure 5");
  const int thread_counts[] = {1, 2, 4, 8};
  std::printf("%-12s", "design");
  for (int t : thread_counts) std::printf(" %7dthr", t);
  std::printf("  | unscalable-CS/txn  latches/txn\n");

  for (SystemDesign design :
       {SystemDesign::kConventional, SystemDesign::kLogical,
        SystemDesign::kPlpRegular}) {
    // The conventional design is thread-per-transaction: size its
    // submission pool to the widest client sweep so the pool never caps
    // closed-loop concurrency below the paper's baseline.
    auto engine = bench::MakeEngine(
        design, design == SystemDesign::kConventional ? 8 : 4);
    TatpWorkload tatp(engine.get(), bench::CountTatpConfig());
    bench::MustLoad(tatp.Load(), "TATP");
    std::printf("%-12s", SystemDesignName(design));
    for (int threads : thread_counts) {
      DriverOptions options;
      options.num_threads = threads;
      options.duration = bench::kWindow;
      DriverResult r = RunWorkload(
          engine.get(),
          [&](Rng& rng) {
            return tatp.GetSubscriberData(tatp.RandomSubscriber(rng));
          },
          options);
      std::printf(" %10.1f", r.ktps());
      std::fflush(stdout);
    }
    engine->Stop();
    const bench::CountRun counts =
        bench::MeasureCounts({SystemDesignName(design), design},
                             bench::CountWorkload::kTatpGetSubscriber,
                             bench::kCountTxns);
    std::printf("  | %17.2f %12.2f\n", counts.Unscalable(),
                counts.TotalLatches());
  }
}

}  // namespace
}  // namespace plp

int main() {
  plp::Run();
  return 0;
}

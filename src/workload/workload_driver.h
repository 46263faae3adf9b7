// Multi-threaded workload driver: N client threads submit transactions to
// an engine for a fixed duration, with critical-section deltas and a
// throughput time series captured around the run.
#ifndef PLP_WORKLOAD_WORKLOAD_DRIVER_H_
#define PLP_WORKLOAD_WORKLOAD_DRIVER_H_

#include <chrono>
#include <functional>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/engine.h"
#include "src/sync/cs_profiler.h"

namespace plp {

struct DriverOptions {
  int num_threads = 4;
  std::chrono::milliseconds duration{1000};
  std::uint64_t seed = 1;
  /// Open-loop pipelined mode: each client thread keeps up to this many
  /// transactions in flight through Engine::Submit, reaping the oldest
  /// handle once the window is full. 0 and 1 are the classic closed loop
  /// (submit, then wait).
  int pipeline_depth = 0;
};

struct DriverResult {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t elapsed_ns = 0;       // wall time of the window
  std::uint64_t thread_time_ns = 0;   // summed across client threads
  /// Engine-wide admission-gate high-water mark over the window (how many
  /// transactions were concurrently in flight).
  std::uint64_t peak_inflight = 0;
  CsCounts cs_delta;                  // profiler delta over the window
  /// Per-transaction latencies (ns), sorted ascending: submit to
  /// completion (in the open loop, including time queued behind the
  /// pipeline window).
  std::vector<std::uint64_t> latencies_ns;

  /// One throughput window, counted from the driver's own commit tally.
  struct Sample {
    double at_seconds = 0;        // window end, relative to the run start
    std::uint64_t committed = 0;  // commits completed in the window
    double ktps = 0;              // thousands of commits per second
  };
  /// Throughput time series, one sample per sample interval (RunWorkload:
  /// 100 ms). The last sample closes the run after the clients drained,
  /// so the windows' commits sum to `committed`.
  std::vector<Sample> samples;

  /// Latency percentile in microseconds (q in [0,1]); 0 when no samples.
  double latency_us(double q) const {
    if (latencies_ns.empty()) return 0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(latencies_ns.size() - 1));
    return static_cast<double>(latencies_ns[idx]) / 1000.0;
  }
  double p50_us() const { return latency_us(0.50); }
  double p99_us() const { return latency_us(0.99); }

  double ktps() const {
    return elapsed_ns == 0
               ? 0
               : static_cast<double>(committed) /
                     (static_cast<double>(elapsed_ns) / 1e9) / 1000.0;
  }
  double cs_per_txn() const {
    return committed == 0 ? 0
                          : static_cast<double>(cs_delta.TotalEntries()) /
                                static_cast<double>(committed);
  }
  double contended_cs_per_txn() const {
    return committed == 0 ? 0
                          : static_cast<double>(cs_delta.TotalContended()) /
                                static_cast<double>(committed);
  }
  double latches_per_txn() const {
    return committed == 0 ? 0
                          : static_cast<double>(cs_delta.TotalLatches()) /
                                static_cast<double>(committed);
  }
};

/// Generates the next transaction for a client thread.
using TxnFactory = std::function<TxnRequest(Rng&)>;

/// Runs the workload for `options.duration`. Aborted transactions are
/// counted and the client moves on (no retry), as in the paper's drivers.
/// With `options.pipeline_depth > 1` the clients run open-loop (see
/// DriverOptions). At the end of the run the driver exports the flight
/// recorder's Chrome trace to PLP_TRACE_PATH when that variable is set.
DriverResult RunWorkload(Engine* engine, const TxnFactory& next,
                         const DriverOptions& options);

/// Same, but samples throughput every `sample_interval` and invokes `at`
/// callbacks at their scheduled offsets (used by the repartitioning
/// experiment to flip skew and trigger rebalancing).
struct TimedEvent {
  std::chrono::milliseconds at;
  std::function<void()> fn;
};
DriverResult RunWorkloadTimed(Engine* engine, const TxnFactory& next,
                              const DriverOptions& options,
                              std::chrono::milliseconds sample_interval,
                              std::vector<TimedEvent> events);

}  // namespace plp

#endif  // PLP_WORKLOAD_WORKLOAD_DRIVER_H_

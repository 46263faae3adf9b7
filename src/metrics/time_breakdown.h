// Per-transaction time breakdowns (Figures 6, 7 and 10).
//
// Contention components come from the wait-time counters the latch/lock
// instrumentation records; the fixed cost of acquiring uncontended latches
// ("Latching" in the figures) is charged as count x calibrated unit cost.
#ifndef PLP_METRICS_TIME_BREAKDOWN_H_
#define PLP_METRICS_TIME_BREAKDOWN_H_

#include <cstdint>
#include <string>

#include "src/sync/cs_profiler.h"

namespace plp {

struct TimeBreakdown {
  double total_us = 0;           // wall time per transaction
  double idx_latch_wait_us = 0;  // "Idx Latch Cont."
  double heap_latch_wait_us = 0; // "Heap Latch Cont."
  double latching_us = 0;        // uncontended latch acquire overhead
  double lock_wait_us = 0;       // lock manager waits
  double smo_wait_us = 0;        // folded into latch waits by the paper
  double other_us = 0;           // everything else (useful work)
};

/// Measures the cost of one uncontended latch acquire/release pair on this
/// machine (memoized after the first call).
double CalibratedLatchCostNs();

/// Builds a per-transaction breakdown from a profiler delta.
/// `wall_ns` is the total wall-clock time of the measurement window summed
/// over worker threads; `num_xcts` the transactions completed in it.
TimeBreakdown MakeTimeBreakdown(const CsCounts& delta, std::uint64_t num_xcts,
                                std::uint64_t wall_ns);

/// Fixed-width row for bench output, e.g.
///   "Conv.  16thr | total 123.4us | idx 10.2 | heap 0.0 | latch 3.1 | ..."
std::string FormatBreakdownRow(const std::string& label,
                               const TimeBreakdown& b);

}  // namespace plp

#endif  // PLP_METRICS_TIME_BREAKDOWN_H_

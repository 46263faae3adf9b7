#include "src/metrics/time_breakdown.h"

#include <cstdio>

#include "src/common/clock.h"
#include "src/sync/latch.h"

namespace plp {

double CalibratedLatchCostNs() {
  static const double cost = [] {
    const bool was_enabled = CsProfiler::enabled();
    CsProfiler::SetEnabled(false);
    Latch latch(PageClass::kIndex);
    constexpr int kIters = 200000;
    const std::uint64_t t0 = NowNanos();
    for (int i = 0; i < kIters; ++i) {
      latch.AcquireShared();
      latch.ReleaseShared();
    }
    const std::uint64_t t1 = NowNanos();
    CsProfiler::SetEnabled(was_enabled);
    return static_cast<double>(t1 - t0) / kIters;
  }();
  return cost;
}

TimeBreakdown MakeTimeBreakdown(const CsCounts& delta, std::uint64_t num_xcts,
                                std::uint64_t wall_ns) {
  TimeBreakdown b;
  if (num_xcts == 0) return b;
  const double per_xct = 1.0 / static_cast<double>(num_xcts) / 1000.0;

  b.total_us = static_cast<double>(wall_ns) * per_xct;
  b.idx_latch_wait_us =
      static_cast<double>(
          delta.latch_wait_ns[static_cast<int>(PageClass::kIndex)]) *
      per_xct;
  b.heap_latch_wait_us =
      static_cast<double>(
          delta.latch_wait_ns[static_cast<int>(PageClass::kHeap)]) *
      per_xct;
  b.lock_wait_us =
      static_cast<double>(
          delta.wait_ns[static_cast<int>(CsCategory::kLockMgr)]) *
      per_xct;
  // SMO serialization is tracked through the page-latch category's
  // TrackedMutex (smo_mu_), whose waits also land in kPageLatch wait_ns;
  // separate them out as the portion not attributed to a page class.
  const double total_latch_wait =
      static_cast<double>(
          delta.wait_ns[static_cast<int>(CsCategory::kPageLatch)]) *
      per_xct;
  const double classed = b.idx_latch_wait_us + b.heap_latch_wait_us +
                         static_cast<double>(delta.latch_wait_ns[static_cast<int>(
                             PageClass::kCatalog)]) *
                             per_xct;
  b.smo_wait_us = total_latch_wait > classed ? total_latch_wait - classed : 0;

  b.latching_us = static_cast<double>(delta.TotalLatches()) *
                  CalibratedLatchCostNs() * per_xct;

  const double accounted = b.idx_latch_wait_us + b.heap_latch_wait_us +
                           b.latching_us + b.lock_wait_us + b.smo_wait_us;
  b.other_us = b.total_us > accounted ? b.total_us - accounted : 0;
  return b;
}

std::string FormatBreakdownRow(const std::string& label,
                               const TimeBreakdown& b) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-18s | total %9.2fus | idx-wait %8.2f | heap-wait %8.2f | "
                "latching %7.2f | lock-wait %8.2f | smo-wait %7.2f | "
                "other %9.2f",
                label.c_str(), b.total_us, b.idx_latch_wait_us,
                b.heap_latch_wait_us, b.latching_us, b.lock_wait_us,
                b.smo_wait_us, b.other_us);
  return buf;
}

}  // namespace plp

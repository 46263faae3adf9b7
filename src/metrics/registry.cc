#include "src/metrics/registry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>

namespace plp {

namespace internal {
std::size_t MetricThreadSlot() {
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}
}  // namespace internal

namespace {
// Bucket index for a value: its bit width, so bucket i holds values in
// [2^(i-1), 2^i) and bucket 0 holds exactly zero.
inline std::size_t BucketFor(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

// Inclusive upper bound of bucket i (the percentile estimate it reports).
inline std::uint64_t BucketCeiling(std::size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return (std::uint64_t{1} << i) - 1;
}

// Recomputes p50/p95/p99 from a summary's buckets by rank, reporting
// bucket ceilings clamped to the summary's max. Shared by the live
// Collect() path and by window deltas (HistogramSummary::DeltaSince).
void FinalizePercentiles(HistogramSummary* s) {
  if (s->count == 0) {
    s->p50 = s->p95 = s->p99 = 0;
    return;
  }
  auto percentile = [&](double q) {
    // Rank of the q-quantile among `count` samples; find the bucket whose
    // cumulative count covers it and report that bucket's ceiling.
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(s->count - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      seen += s->buckets[i];
      if (seen > rank) {
        const std::uint64_t ceiling = BucketCeiling(i);
        return ceiling < s->max ? ceiling : s->max;
      }
    }
    return s->max;
  };
  s->p50 = percentile(0.50);
  s->p95 = percentile(0.95);
  s->p99 = percentile(0.99);
}
}  // namespace

void Histogram::Record(std::uint64_t value) {
  Stripe& s = stripes_[internal::MetricThreadSlot() % kStripes];
  s.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = s.max.load(std::memory_order_relaxed);
  while (value > seen &&
         !s.max.compare_exchange_weak(seen, value,
                                      std::memory_order_relaxed)) {
  }
}

HistogramSummary Histogram::Collect() const {
  HistogramSummary out;
  for (const Stripe& s : stripes_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.buckets[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    const std::uint64_t m = s.max.load(std::memory_order_relaxed);
    if (m > out.max) out.max = m;
  }
  FinalizePercentiles(&out);
  return out;
}

HistogramSummary HistogramSummary::DeltaSince(
    const HistogramSummary& base) const {
  // A base that is "ahead" of this summary (snapshots taken out of order,
  // or a Reset between them) clamps to the current cumulative values
  // rather than underflowing.
  if (base.count > count) return *this;
  HistogramSummary d;
  d.count = count - base.count;
  d.sum = sum >= base.sum ? sum - base.sum : 0;
  std::size_t highest = 0;
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] =
        buckets[i] >= base.buckets[i] ? buckets[i] - base.buckets[i] : 0;
    if (d.buckets[i] != 0) highest = i;
  }
  // The true window max is unrecoverable from cumulative state; the
  // ceiling of the highest nonzero delta bucket (clamped to the
  // cumulative max) bounds it to within 2x — same precision contract as
  // the percentiles.
  d.max = d.count == 0 ? 0 : std::min(BucketCeiling(highest), max);
  FinalizePercentiles(&d);
  return d;
}

void Histogram::Reset() {
  for (Stripe& s : stripes_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      s.buckets[i].store(0, std::memory_order_relaxed);
    }
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
  }
}

StatsSnapshot StatsSnapshot::DeltaSince(const StatsSnapshot& base) const {
  StatsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = base.counters.find(name);
    const std::uint64_t b = it == base.counters.end() ? 0 : it->second;
    // A Reset between the snapshots makes the base "ahead"; report the
    // current cumulative value rather than underflowing.
    d.counters[name] = v >= b ? v - b : v;
  }
  // Gauges are levels, not rates: the current reading is the window value.
  d.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    auto it = base.histograms.find(name);
    d.histograms[name] =
        it == base.histograms.end() ? h : h.DeltaSince(it->second);
  }
  return d;
}

std::string StatsSnapshot::ToText() const {
  std::string out;
  char line[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof(line), "%-44s %12" PRIu64 "\n", name.c_str(),
                  v);
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof(line), "%-44s %12" PRId64 "\n", name.c_str(),
                  v);
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "%-44s count=%" PRIu64 " mean=%.1f p50=%" PRIu64
                  " p95=%" PRIu64 " p99=%" PRIu64 " max=%" PRIu64 "\n",
                  name.c_str(), h.count, h.mean(), h.p50, h.p95, h.p99,
                  h.max);
    out += line;
  }
  // Ranked contention section, reassembled from the contention.<site>.*
  // gauges the Database gauge provider publishes from the CsProfiler's
  // per-site counts (a snapshot only carries names and values).
  struct SiteRow {
    std::string site;
    std::int64_t waits = 0;
    std::int64_t wait_us_total = 0;
    std::int64_t p99_us = 0;
  };
  std::map<std::string, SiteRow> rows;
  const std::string prefix = "contention.";
  for (const auto& [name, v] : gauges) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t dot = name.find('.', prefix.size());
    if (dot == std::string::npos) continue;
    const std::string site = name.substr(prefix.size(), dot - prefix.size());
    const std::string field = name.substr(dot + 1);
    SiteRow& row = rows[site];
    row.site = site;
    if (field == "waits") row.waits = v;
    if (field == "wait_us_total") row.wait_us_total = v;
    if (field == "p99_us") row.p99_us = v;
  }
  if (!rows.empty()) {
    std::vector<SiteRow> ranked;
    ranked.reserve(rows.size());
    for (auto& [site, row] : rows) ranked.push_back(std::move(row));
    std::sort(ranked.begin(), ranked.end(),
              [](const SiteRow& a, const SiteRow& b) {
                return a.wait_us_total > b.wait_us_total;
              });
    out += "-- top contended latch sites (by total wait) --\n";
    for (const SiteRow& row : ranked) {
      std::snprintf(line, sizeof(line),
                    "  %-20s waits=%-10" PRId64 " total_us=%-12" PRId64
                    " p99_us=%" PRId64 "\n",
                    row.site.c_str(), row.waits, row.wait_us_total,
                    row.p99_us);
      out += line;
    }
  }
  return out;
}

std::string StatsSnapshot::ToJson() const {
  std::string out = "{";
  char buf[320];
  bool first = true;
  auto sep = [&] {
    if (!first) out += ", ";
    first = false;
  };
  for (const auto& [name, v] : counters) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64, name.c_str(), v);
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    sep();
    std::snprintf(buf, sizeof(buf), "\"%s\": %" PRId64, name.c_str(), v);
    out += buf;
  }
  for (const auto& [name, h] : histograms) {
    sep();
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                  ", \"max\": %" PRIu64 ", \"p50\": %" PRIu64
                  ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64 "}",
                  name.c_str(), h.count, h.sum, h.max, h.p50, h.p95, h.p99);
    out += buf;
  }
  out += "}";
  return out;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock g(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  MutexLock g(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock g(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::RegisterGaugeProvider(const void* token,
                                            GaugeProvider fn) {
  MutexLock g(mu_);
  providers_.emplace_back(token, std::move(fn));
}

void MetricsRegistry::UnregisterGaugeProvider(const void* token) {
  MutexLock g(mu_);
  std::erase_if(providers_,
                [token](const auto& p) { return p.first == token; });
}

StatsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock g(mu_);
  StatsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Collect();
  }
  GaugeSink sink = [&snap](const std::string& name, std::int64_t value) {
    snap.gauges[name] = value;
  };
  for (const auto& [token, fn] : providers_) fn(sink);
  return snap;
}

void MetricsRegistry::Reset() {
  MutexLock g(mu_);
  for (const auto& [name, c] : counters_) c->Reset();
  for (const auto& [name, gauge] : gauges_) gauge->Reset();
  for (const auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry* MetricsRegistry::Scratch() {
  static MetricsRegistry* scratch = new MetricsRegistry();  // leaked: sink
  return scratch;
}

}  // namespace plp

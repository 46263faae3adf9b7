#include "src/workload/workload_driver.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace plp {

namespace {
DriverResult RunInternal(Engine* engine, const TxnFactory& next,
                         const DriverOptions& options,
                         std::chrono::milliseconds sample_interval,
                         std::vector<TimedEvent> events) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> aborted{0};
  std::atomic<std::uint64_t> thread_time{0};

  DriverResult result;
  const CsCounts before = CsProfiler::Global().Collect();
  const std::uint64_t t0 = NowNanos();
  std::uint64_t last_sample_ns = t0;
  std::uint64_t last_committed = 0;
  auto sample = [&] {
    const std::uint64_t now = NowNanos();
    const std::uint64_t total = committed.load(std::memory_order_relaxed);
    DriverResult::Sample s;
    s.at_seconds = static_cast<double>(now - t0) / 1e9;
    s.committed = total - last_committed;
    const double window_s = static_cast<double>(now - last_sample_ns) / 1e9;
    s.ktps = window_s > 0 ? static_cast<double>(s.committed) / window_s / 1e3
                          : 0;
    result.samples.push_back(s);
    last_sample_ns = now;
    last_committed = total;
  };

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(options.num_threads));
  for (int i = 0; i < options.num_threads; ++i) {
    clients.emplace_back([&, i] {
      Rng rng(options.seed * 1315423911u + static_cast<std::uint64_t>(i));
      const std::uint64_t start = NowNanos();
      while (!stop.load(std::memory_order_relaxed)) {
        TxnRequest req = next(rng);
        if (engine->Execute(req).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          aborted.fetch_add(1, std::memory_order_relaxed);
        }
      }
      thread_time.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    });
  }

  // Timer/event loop on the coordinating thread.
  std::sort(events.begin(), events.end(),
            [](const TimedEvent& a, const TimedEvent& b) {
              return a.at < b.at;
            });
  std::size_t next_event = 0;
  const auto deadline = std::chrono::steady_clock::now() + options.duration;
  auto next_sample = std::chrono::steady_clock::now() + sample_interval;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_sample) {
      sample();
      next_sample += sample_interval;
    }
    while (next_event < events.size() &&
           now - (deadline - options.duration) >= events[next_event].at) {
      events[next_event].fn();
      ++next_event;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  sample();

  result.elapsed_ns = NowNanos() - t0;
  result.committed = committed.load();
  result.aborted = aborted.load();
  result.thread_time_ns = thread_time.load();
  result.cs_delta = CsProfiler::Global().Collect() - before;
  if (const char* trace_path = std::getenv("PLP_TRACE_PATH")) {
    const Status st = engine->DumpTrace(trace_path);
    if (st.ok()) {
      std::fprintf(stderr, "[trace] wrote %s\n", trace_path);
    } else {
      std::fprintf(stderr, "[trace] export failed: %s\n",
                   st.ToString().c_str());
    }
  }
  return result;
}
}  // namespace

DriverResult RunWorkload(Engine* engine, const TxnFactory& next,
                         const DriverOptions& options) {
  return RunInternal(engine, next, options, std::chrono::milliseconds(100),
                     {});
}

DriverResult RunWorkloadTimed(Engine* engine, const TxnFactory& next,
                              const DriverOptions& options,
                              std::chrono::milliseconds sample_interval,
                              std::vector<TimedEvent> events) {
  return RunInternal(engine, next, options, sample_interval,
                     std::move(events));
}

}  // namespace plp

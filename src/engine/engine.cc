#include "src/engine/engine.h"

#include <cstdio>

#include "src/common/clock.h"

namespace plp {

Engine::Engine(EngineConfig config)
    : config_(config),
      gate_(config.max_inflight),
      db_(config.db) {
  MetricsRegistry* m = db_.metrics();
  rejected_metric_ = m->counter("admission.rejected");
  gate_.BindMetrics(m->counter("admission.admitted"), rejected_metric_,
                    m->counter("admission.blocked"),
                    m->histogram("admission.wait_us"));
  m->RegisterGaugeProvider(this, [this](const GaugeSink& sink) {
    sink("admission.inflight", static_cast<std::int64_t>(gate_.inflight()));
    sink("admission.peak_inflight",
         static_cast<std::int64_t>(gate_.peak()));
    sink("admission.limit", static_cast<std::int64_t>(gate_.limit()));
  });
  if (config_.dedicated_callback_thread) {
    callback_executor_ = std::make_unique<CallbackExecutor>();
  }
  if (config_.stats_interval.count() > 0) {
    stats_thread_ = std::thread([this] { StatsReporterLoop(); });
  }
}

Engine::~Engine() {
  if (stats_thread_.joinable()) {
    {
      MutexLock g(stats_mu_);
      stats_stop_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
  }
  db_.metrics()->UnregisterGaugeProvider(this);
}

void Engine::StatsReporterLoop() {
  // Monotonic reporter uptime: consumers (tools/plp_top.py) delta the
  // cumulative counters between consecutive [stats] lines and need the
  // exact window length, which wall-clock arrival times misstate under
  // pipe buffering.
  Gauge* uptime_ms = db_.metrics()->gauge("stats.uptime_ms");
  const std::uint64_t loop_start_ns = NowNanos();
  MutexLock lk(stats_mu_);
  for (;;) {
    // Interval sleep, cut short by the stop flag; spurious wakeups simply
    // re-arm the timer (an extra [stats] line, never a missed stop).
    if (!stats_stop_) (void)lk.WaitFor(stats_cv_, config_.stats_interval);
    const bool stopped = stats_stop_;
    lk.Unlock();
    // A final snapshot is always emitted on the way out, so even programs
    // shorter than one interval produce a [stats] line.
    uptime_ms->Set(
        static_cast<std::int64_t>((NowNanos() - loop_start_ns) / 1000000));
    const std::string json = db_.metrics()->Snapshot().ToJson();
    std::printf("[stats] %s\n", json.c_str());
    std::fflush(stdout);
    if (stopped) return;
    lk.Lock();
  }
}

TxnHandle Engine::Submit(TxnRequest req, TxnOptions options) {
  auto state = std::make_shared<internal::TxnShared>();
  state->callback = std::move(options.on_complete);
  state->executor = callback_executor_.get();
  TxnHandle handle(state);
  if (!gate_.Acquire(options.on_full == TxnOptions::OnFull::kBlock)) {
    internal::ResolveTxn(state, Status::Retry("engine at max_inflight"));
    return handle;
  }
  state->gate = &gate_;
  SubmitImpl(std::move(req), TxnToken(std::move(state)));
  return handle;
}

}  // namespace plp

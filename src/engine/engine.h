// Execution-engine interface: the five system designs of Section 4.1
// behind one API, so workloads and benchmarks are design-agnostic.
//
// The primary entry point is asynchronous: Submit() enqueues a transaction
// and returns a TxnHandle immediately, so a handful of client threads can
// keep thousands of transactions in flight across the partition workers
// (the open-loop mode the DORA/PLP thread-to-data architecture calls for).
// Execute() remains as a blocking wrapper over Submit(...).Wait().
#ifndef PLP_ENGINE_ENGINE_H_
#define PLP_ENGINE_ENGINE_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/engine/action.h"
#include "src/engine/database.h"
#include "src/engine/txn_handle.h"
#include "src/metrics/flight_recorder.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

enum class SystemDesign {
  kConventional,   // thread-per-transaction, central locking (+ optional SLI)
  kLogical,        // logical-only partitioning (DORA): no locking, latched pages
  kPlpRegular,     // PLP: latch-free index, shared (latched) heap
  kPlpPartition,   // PLP: latch-free index + partition-owned heap pages
  kPlpLeaf,        // PLP: latch-free index + leaf-owned heap pages
};

const char* SystemDesignName(SystemDesign d);

struct EngineConfig {
  SystemDesign design = SystemDesign::kConventional;
  /// Partition worker threads (partitioned designs) / submission-pool
  /// threads (conventional design).
  int num_workers = 4;
  /// Admission-control bound: the maximum number of transactions Submit
  /// accepts concurrently before applying backpressure (TxnOptions::
  /// on_full). Must be > 0.
  std::size_t max_inflight = 4096;
  /// Multi-rooted primary indexes for the conventional/logical designs
  /// (Appendix B compares "Normal" vs "MRBT"). PLP designs always use the
  /// MRBTree, with one sub-tree per logical partition.
  bool use_mrbt = false;
  /// Speculative Lock Inheritance in the conventional design.
  bool enable_sli = true;
  /// Run TxnOptions::on_complete callbacks on a dedicated executor thread
  /// instead of the committing worker. Slow callbacks then cost callback-
  /// thread latency, not partition-worker / submission-pool throughput.
  /// Completion ordering is unchanged: the callback still finishes before
  /// Wait() returns and before the admission slot frees.
  bool dedicated_callback_thread = false;
  /// When > 0, a background reporter thread prints one `[stats] {json}`
  /// line (the full StatsSnapshot) to stdout every interval, plus a final
  /// line at engine destruction. 0 disables the reporter.
  std::chrono::milliseconds stats_interval{0};
  DatabaseConfig db;
};

/// Per-submission options for Engine::Submit.
struct TxnOptions {
  /// Backpressure policy when the engine is at max_inflight.
  enum class OnFull {
    kBlock,  // Submit waits for an admission slot (default)
    kRetry,  // Submit returns a handle already completed with
             // Status::Retry(); the caller resubmits later
  };
  OnFull on_full = OnFull::kBlock;
  /// Runs exactly once with the final status, on the thread that completes
  /// the transaction (a worker/pool thread — or the submitting thread when
  /// admission rejects with kRetry, or at engine teardown). It runs before
  /// Wait() returns. It must not block, and in particular must not call
  /// Submit with OnFull::kBlock (the admission slot it would wait for is
  /// released only after the callback returns).
  std::function<void(const Status&)> on_complete;
};

class Engine {
 public:
  explicit Engine(EngineConfig config);
  virtual ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one transaction for asynchronous execution and returns a
  /// future-like handle (Wait/TryGet/on_complete callback). Consumes the
  /// request. Applies admission control per `options.on_full` when
  /// max_inflight transactions are already in flight.
  TxnHandle Submit(TxnRequest req, TxnOptions options = {});

  /// Runs one transaction to commit or abort (blocking). Wrapper over
  /// Submit(...).Wait(); consumes `req`'s contents, leaving it empty —
  /// re-executing the same request object runs an empty transaction, so
  /// build a fresh TxnRequest per attempt (retry loops included).
  Status Execute(TxnRequest& req) {
    TxnHandle handle = Submit(std::move(req));
    req.phases.clear();  // deterministic moved-from state
    return handle.Wait();
  }

  virtual void Start() {}
  virtual void Stop() {}

  /// Creates a table partitioned at `boundaries` (first entry must be "").
  /// The engine maps the logical partitioning onto the design-appropriate
  /// physical layout. With `clustered`, records live in the index leaves
  /// (no heap file; Appendix C.2).
  virtual Result<Table*> CreateTable(const std::string& name,
                                     std::vector<std::string> boundaries,
                                     bool clustered = false) = 0;

  /// Rebalances the table to the new boundary set. Conventional: no-op.
  /// Logical: routing update only. PLP: MRBTree slice/meld (+ heap record
  /// movement for the owned heap modes).
  virtual Status Repartition(const std::string& table,
                             const std::vector<std::string>& boundaries) {
    (void)table;
    (void)boundaries;
    return Status::OK();
  }

  Database& db() { return db_; }
  const EngineConfig& config() const { return config_; }
  SystemDesign design() const { return config_.design; }

  /// Point-in-time snapshot of every registered metric (counters, gauges
  /// including the admission-gate and per-partition providers, latency
  /// histograms). Never blocks record paths; see
  /// docs/observability.md for the metric catalog.
  StatsSnapshot GetStats() { return db_.metrics()->Snapshot(); }

  /// The engine's metrics registry, for callers that bind their own
  /// instruments or Reset() between measurement windows.
  MetricsRegistry* metrics() { return db_.metrics(); }

  /// Writes the flight recorder's Chrome-trace (Perfetto-loadable) JSON
  /// to `path`: everything still in the per-thread rings — latch/lock
  /// waits, WAL fsyncs, buffer-pool stalls, partition phases,
  /// checkpoint/recovery spans. The workload driver and quickstart wire
  /// this to the PLP_TRACE_PATH environment variable.
  Status DumpTrace(const std::string& path) {
    return FlightRecorder::Global().ExportChromeTrace(path);
  }

  /// Admission-gate observability: current depth and its high-water mark
  /// since the engine was built (also the admission.* gauges).
  std::size_t inflight() const { return gate_.inflight(); }
  std::size_t peak_inflight() const { return gate_.peak(); }
  /// The admission.rejected counter (zeroed by MetricsRegistry::Reset).
  std::uint64_t submissions_rejected() const {
    return rejected_metric_->value();
  }

 protected:
  /// Design-specific asynchronous execution: run `req` to commit or abort
  /// and call token.Complete(status) exactly once from wherever the
  /// transaction finishes.
  virtual void SubmitImpl(TxnRequest req, TxnToken token) = 0;

  /// Drains and blocks until every admitted transaction has completed
  /// (new submissions are rejected with kRetry meanwhile). Engines call
  /// this at the top of Stop() before tearing down worker queues, and
  /// ReopenGate() from Start() to accept work again.
  void DrainInflight() { gate_.WaitIdle(); }
  void ReopenGate() { gate_.Reopen(); }

  EngineConfig config_;
  AdmissionGate gate_;
  Database db_;
  // Declared last: destroyed first, so straggling callbacks (which touch
  // the gate and may touch db state) run while both are still alive.
  std::unique_ptr<CallbackExecutor> callback_executor_;

 private:
  void StatsReporterLoop();

  Counter* rejected_metric_ = nullptr;  // admission.rejected
  Mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool stats_stop_ PLP_GUARDED_BY(stats_mu_) = false;
  std::thread stats_thread_;
};

/// Builds the engine for a design. Rejects invalid configurations
/// (num_workers <= 0, max_inflight == 0).
Result<std::unique_ptr<Engine>> CreateEngine(EngineConfig config);

}  // namespace plp

#endif  // PLP_ENGINE_ENGINE_H_

#include "src/engine/conventional_engine.h"

#include <unordered_map>

#include "src/engine/record_ops.h"

namespace plp {

ConventionalEngine::ConventionalEngine(EngineConfig config)
    : Engine(config) {}

ConventionalEngine::~ConventionalEngine() { Stop(); }

void ConventionalEngine::Start() {
  if (pool_running_.exchange(true)) return;
  ReopenGate();
  // Conventional cleaning: cleaner threads latch arbitrary dirty pages.
  cleaner_ = std::make_unique<PageCleaner>(db_.pool());
  cleaner_->Start();
  jobs_.Reopen();  // restart after a Stop() that closed the queue
  pool_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    pool_.emplace_back([this] { PoolLoop(); });
  }
}

void ConventionalEngine::Stop() {
  if (!pool_running_.exchange(false)) {
    if (cleaner_) cleaner_->Stop();
    return;
  }
  // Let queued submissions complete before closing the pool so no
  // TxnHandle is left unresolved.
  DrainInflight();
  jobs_.Close();
  for (auto& t : pool_) {
    if (t.joinable()) t.join();
  }
  pool_.clear();
  if (cleaner_) cleaner_->Stop();
  // Drain rejected submissions only for the teardown window; once stopped,
  // submissions run inline again (the documented pre-Start behaviour).
  ReopenGate();
}

void ConventionalEngine::SubmitImpl(TxnRequest req, TxnToken token) {
  if (!pool_running_.load(std::memory_order_acquire)) {
    token.Complete(RunSync(req));
    return;
  }
  jobs_.Push(Job{std::move(req), std::move(token)});
}

void ConventionalEngine::PoolLoop() {
  for (;;) {
    auto job = jobs_.Pop();
    if (!job.has_value()) return;  // queue closed
    job->token.Complete(RunSync(job->req));
  }
}

Result<Table*> ConventionalEngine::CreateTable(
    const std::string& name, std::vector<std::string> boundaries,
    bool clustered) {
  TableConfig config;
  config.name = name;
  config.index_policy = LatchPolicy::kLatched;
  config.heap_mode = HeapMode::kShared;
  config.clustered = clustered;
  config.index_boundaries =
      config_.use_mrbt ? std::move(boundaries) : std::vector<std::string>{""};
  return db_.CreateTable(std::move(config));
}

SliCache* ConventionalEngine::ThreadSli() {
  MutexLock g(sli_mu_);
  auto& slot = sli_caches_[std::this_thread::get_id()];
  if (!slot) {
    slot = std::make_unique<SliCache>(
        db_.locks(), next_pseudo_txn_.fetch_add(1));
  }
  return slot.get();
}

Status ConventionalEngine::RunSync(TxnRequest& req) {
  Transaction* txn = db_.txns()->Begin();
  std::vector<std::function<Status()>> undos;
  Status failure = Status::OK();

  for (Phase& phase : req.phases) {
    if (!failure.ok()) break;
    for (Action& action : phase.actions) {
      Table* table = db_.GetTable(action.table);
      if (table == nullptr) {
        failure = Status::InvalidArgument("no table " + action.table);
        break;
      }
      // Hierarchical locking: table-level intent first. SLI inherits hot
      // intent locks across transactions on this worker thread.
      const std::string table_lock = TableLockName(table->id());
      if (config_.enable_sli) {
        SliCache* sli = ThreadSli();
        if (!sli->Covers(table_lock, LockMode::kIX)) {
          failure = sli->AcquireAndInherit(table_lock, LockMode::kIX);
        }
      } else {
        Status st = db_.locks()->Acquire(txn->id(), table_lock, LockMode::kIX);
        if (st.ok()) {
          txn->held_locks().push_back(table_lock);
        } else {
          failure = st.IsTimedOut() ? Status::Aborted("deadlock victim") : st;
        }
      }
      if (!failure.ok()) break;

      LockingExecContext ctx(table, txn, db_.log(), db_.locks(), &undos);
      Status st = action.fn(ctx);
      if (!st.ok()) {
        failure = st;
        break;
      }
    }
  }

  Status result;
  if (failure.ok()) {
    result = db_.txns()->Commit(txn);
  } else {
    // Compensate inline (this thread owns no partition, so touching any
    // page is fine — it latches).
    for (auto it = undos.rbegin(); it != undos.rend(); ++it) (void)(*it)();
    (void)db_.txns()->Abort(txn);
    result = failure;
  }

  // SLI transaction boundary: give back inherited locks others wait on.
  if (config_.enable_sli) ThreadSli()->ReleaseContended();
  return result;
}

}  // namespace plp

#include "src/txn/txn_manager.h"

#include "src/common/clock.h"

namespace plp {

TxnManager::TxnManager(LogManager* log, LockManager* locks,
                       TxnManagerConfig config, MetricsRegistry* metrics)
    : log_(log), locks_(locks), config_(config), metrics_(metrics) {
  MetricsRegistry* m =
      metrics_ != nullptr ? metrics_ : MetricsRegistry::Scratch();
  begins_metric_ = m->counter("txn.begins");
  commits_metric_ = m->counter("txn.commits");
  aborts_metric_ = m->counter("txn.aborts");
  if (metrics_ != nullptr) {
    metrics_->RegisterGaugeProvider(this, [this](const GaugeSink& sink) {
      sink("txn.active", static_cast<std::int64_t>(active_count()));
    });
  }
}

TxnManager::~TxnManager() {
  if (metrics_ != nullptr) metrics_->UnregisterGaugeProvider(this);
}

Transaction* TxnManager::Begin() {
  const TxnId id = next_txn_id_.fetch_add(1, std::memory_order_relaxed);
  auto txn = std::make_unique<Transaction>(id);
  Transaction* raw = txn.get();

  LogRecord rec;
  rec.type = LogType::kBegin;
  rec.txn = id;
  const Lsn begin_lsn = log_->Append(rec);
  raw->set_begin_lsn(begin_lsn);

  {
    TrackedMutexLock g(table_mu_);
    active_.emplace(id, std::move(txn));
  }
  begins_metric_->Increment();
  return raw;
}

Status TxnManager::Commit(Transaction* txn) {
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn = txn->id();
  const Lsn lsn = log_->Append(rec);
  if (config_.durable_commits) log_->FlushTo(lsn);
  txn->set_state(TxnState::kCommitted);
  if (locks_ != nullptr) {
    locks_->ReleaseAll(txn->id(), txn->held_locks());
  }
  committed_.fetch_add(1, std::memory_order_relaxed);
  commits_metric_->Increment();
  Retire(txn);
  return Status::OK();
}

Status TxnManager::Abort(Transaction* txn) {
  Status undo_status = txn->RunUndo();

  LogRecord rec;
  rec.type = LogType::kAbort;
  rec.txn = txn->id();
  log_->Append(rec);
  txn->set_state(TxnState::kAborted);
  if (locks_ != nullptr) {
    locks_->ReleaseAll(txn->id(), txn->held_locks());
  }
  aborted_.fetch_add(1, std::memory_order_relaxed);
  aborts_metric_->Increment();
  Retire(txn);
  return undo_status;
}

void TxnManager::Retire(Transaction* txn) {
  TrackedMutexLock g(table_mu_);
  active_.erase(txn->id());
}

std::size_t TxnManager::active_count() {
  TrackedMutexLock g(table_mu_);
  return active_.size();
}

std::vector<std::pair<TxnId, Lsn>> TxnManager::ActiveSnapshot() {
  std::vector<std::pair<TxnId, Lsn>> out;
  TrackedMutexLock g(table_mu_);
  out.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    out.emplace_back(id, txn->begin_lsn());
  }
  return out;
}

void TxnManager::EnsureNextIdAtLeast(TxnId id) {
  TxnId expected = next_txn_id_.load(std::memory_order_relaxed);
  while (expected < id && !next_txn_id_.compare_exchange_weak(
                              expected, id, std::memory_order_relaxed)) {
  }
}

}  // namespace plp

#include "src/engine/partition_manager.h"

#include <cassert>

#include "src/buffer/page_cleaner.h"
#include "src/common/clock.h"
#include "src/metrics/flight_recorder.h"

namespace plp {

PartitionManager::PartitionManager(Database* db, int num_workers,
                                   CtxFactory factory)
    : db_(db), factory_(std::move(factory)) {
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  MetricsRegistry* m = db_->metrics();
  txns_metric_ = m->counter("partition.txns");
  single_site_metric_ = m->counter("partition.single_site_txns");
  cross_site_metric_ = m->counter("partition.cross_site_txns");
  actions_metric_ = m->counter("partition.actions");
  phases_metric_ = m->counter("partition.phases");
  undo_actions_metric_ = m->counter("partition.undo_actions");
  // Queue depths are sampled, not counted: workers drain them far too fast
  // for per-push accounting to mean anything. Sum + max keeps the gauge set
  // bounded regardless of worker count.
  m->RegisterGaugeProvider(this, [this](const GaugeSink& sink) {
    std::size_t total = 0, deepest = 0, partitions = 0;
    for (const auto& w : workers_) {
      const std::size_t d = w->queue.size();
      total += d;
      if (d > deepest) deepest = d;
    }
    {
      ReaderMutexLock lk(routing_mu_);
      for (const auto& [table, r] : routing_) partitions += r->uids.size();
    }
    sink("partition.queue_depth", static_cast<std::int64_t>(total));
    sink("partition.max_queue_depth", static_cast<std::int64_t>(deepest));
    sink("partition.count", static_cast<std::int64_t>(partitions));
    sink("partition.workers", static_cast<std::int64_t>(workers_.size()));
  });
}

PartitionManager::~PartitionManager() {
  Stop();
  db_->metrics()->UnregisterGaugeProvider(this);
}

void PartitionManager::Start() {
  if (running_.exchange(true)) return;
  for (auto& w : workers_) w->queue.Reopen();  // restart after Stop()
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread =
        std::thread([this, i] { WorkerLoop(static_cast<int>(i)); });
  }
}

void PartitionManager::Stop() {
  if (!running_.exchange(false)) return;
  for (auto& w : workers_) w->queue.Close();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void PartitionManager::WorkerLoop(int index) {
  Worker& self = *workers_[index];
  for (;;) {
    auto task = self.queue.Pop();
    if (!task.has_value()) return;  // queue closed
    task->fn();
  }
}

void PartitionManager::RegisterTable(Table* table,
                                     std::vector<std::string> boundaries) {
  WriterMutexLock lk(routing_mu_);
  auto routing = std::make_unique<TableRouting>();
  routing->table = table;
  routing->boundaries = std::move(boundaries);
  for (std::size_t i = 0; i < routing->boundaries.size(); ++i) {
    const std::uint32_t uid = next_uid_++;
    routing->uids.push_back(uid);
    worker_by_uid_[uid] =
        static_cast<int>(uid % workers_.size());
    routing->load.push_back(
        std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  routing_[table] = std::move(routing);
}

void PartitionManager::SetRouting(Table* table,
                                  std::vector<std::string> boundaries) {
  WriterMutexLock lk(routing_mu_);
  auto it = routing_.find(table);
  assert(it != routing_.end());
  TableRouting* old = it->second.get();

  auto fresh = std::make_unique<TableRouting>();
  fresh->table = table;
  for (auto& b : boundaries) {
    // Boundaries that survive keep their uid (and hence their worker).
    std::uint32_t uid = 0;
    for (std::size_t i = 0; i < old->boundaries.size(); ++i) {
      if (old->boundaries[i] == b) {
        uid = old->uids[i];
        break;
      }
    }
    if (uid == 0) {
      uid = next_uid_++;
      worker_by_uid_[uid] = static_cast<int>(uid % workers_.size());
    }
    fresh->boundaries.push_back(std::move(b));
    fresh->uids.push_back(uid);
    fresh->load.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  it->second = std::move(fresh);
}

PartitionManager::TableRouting* PartitionManager::RoutingFor(Table* table) {
  auto it = routing_.find(table);
  return it == routing_.end() ? nullptr : it->second.get();
}

PartitionId PartitionManager::RoutePartition(Table* table, Slice key) {
  ReaderMutexLock lk(routing_mu_);
  TableRouting* r = RoutingFor(table);
  assert(r != nullptr && !r->boundaries.empty());
  int lo = 0, hi = static_cast<int>(r->boundaries.size());
  while (lo + 1 < hi) {
    const int mid = (lo + hi) / 2;
    if (Slice(r->boundaries[static_cast<std::size_t>(mid)]) <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<PartitionId>(lo);
}

std::uint32_t PartitionManager::PartitionUid(Table* table, PartitionId p) {
  ReaderMutexLock lk(routing_mu_);
  TableRouting* r = RoutingFor(table);
  assert(r != nullptr && p < r->uids.size());
  return r->uids[p];
}

std::vector<std::string> PartitionManager::Boundaries(Table* table) {
  ReaderMutexLock lk(routing_mu_);
  TableRouting* r = RoutingFor(table);
  return r == nullptr ? std::vector<std::string>{} : r->boundaries;
}

int PartitionManager::WorkerForUid(std::uint32_t uid) {
  ReaderMutexLock lk(routing_mu_);
  auto it = worker_by_uid_.find(uid);
  return it == worker_by_uid_.end() ? -1 : it->second;
}

std::vector<std::uint64_t> PartitionManager::LoadSnapshot(Table* table) {
  ReaderMutexLock lk(routing_mu_);
  TableRouting* r = RoutingFor(table);
  std::vector<std::uint64_t> out;
  if (r != nullptr) {
    out.reserve(r->load.size());
    for (auto& c : r->load) out.push_back(c->load(std::memory_order_relaxed));
  }
  return out;
}

void PartitionManager::ResetLoad(Table* table) {
  ReaderMutexLock lk(routing_mu_);
  TableRouting* r = RoutingFor(table);
  if (r != nullptr) {
    for (auto& c : r->load) c->store(0, std::memory_order_relaxed);
  }
}

/// Per-transaction flow state, shared by the tasks of the current phase.
/// The atomic countdowns are the only cross-worker synchronization: the
/// worker that decrements `remaining` to zero owns the continuation.
struct PartitionManager::TxnFlow {
  TxnRequest req;
  CompletionFn done;  // unset when `token` carries the completion
  TxnToken token;
  Transaction* txn = nullptr;
  std::size_t phase = 0;

  // Current phase (rebuilt by DispatchPhase).
  std::vector<ActionResult> results;
  std::vector<int> assigned_worker;
  std::atomic<int> remaining{0};

  // Accumulated across phases: compensations in execution order with
  // their owning worker, and the first failure seen.
  std::vector<std::pair<int, std::function<Status()>>> undo_log;
  Status failure;
  std::atomic<int> undo_remaining{0};

  // Cross-partition tracking: the first partition uid any action routed
  // to, and whether a later action landed elsewhere. Only touched by the
  // single thread that owns the current phase transition.
  std::uint32_t first_uid = UINT32_MAX;
  bool cross_site = false;
};

void PartitionManager::Submit(TxnRequest req, CompletionFn done) {
  auto flow = std::make_shared<TxnFlow>();
  flow->req = std::move(req);
  flow->done = std::move(done);
  flow->txn = db_->txns()->Begin();
  DispatchPhase(flow);
}

void PartitionManager::Submit(TxnRequest req, TxnToken token) {
  auto flow = std::make_shared<TxnFlow>();
  flow->req = std::move(req);
  flow->token = std::move(token);
  flow->txn = db_->txns()->Begin();
  DispatchPhase(flow);
}

void PartitionManager::FinishTxn(const std::shared_ptr<TxnFlow>& flow,
                                 const Status& status) {
  if (flow->done) {
    flow->done(status);
  } else {
    flow->token.Complete(status);
  }
}

void PartitionManager::TallyFlow(const TxnFlow& flow) {
  txns_metric_->Increment();
  if (flow.first_uid == UINT32_MAX) return;  // no routed actions
  if (flow.cross_site) {
    cross_site_metric_->Increment();
  } else {
    single_site_metric_->Increment();
  }
}

Status PartitionManager::Execute(TxnRequest& req) {
  Mutex mu;
  std::condition_variable cv;
  bool finished = false;
  Status result;
  Submit(std::move(req), [&](const Status& st) {
    // Notify under the mutex: once the waiter sees `finished` it returns
    // and destroys `cv`, so the notify must not outlive the lock.
    MutexLock g(mu);
    result = st;
    finished = true;
    cv.notify_one();
  });
  MutexLock lk(mu);
  while (!finished) lk.Wait(cv);
  return result;
}

void PartitionManager::DispatchPhase(const std::shared_ptr<TxnFlow>& flow) {
  while (flow->phase < flow->req.phases.size() &&
         flow->req.phases[flow->phase].actions.empty()) {
    ++flow->phase;
  }
  if (flow->phase >= flow->req.phases.size()) {
    TallyFlow(*flow);
    FinishTxn(flow, db_->txns()->Commit(flow->txn));
    return;
  }

  Phase& phase = flow->req.phases[flow->phase];
  const int n = static_cast<int>(phase.actions.size());
  phases_metric_->Increment();
  actions_metric_->Add(static_cast<std::uint64_t>(n));
  FlightRecorder::Emit(TraceEventType::kPartitionPhase, NowNanos(), 0,
                       flow->phase, static_cast<std::uint64_t>(n));
  flow->results.assign(static_cast<std::size_t>(n), ActionResult{});
  flow->assigned_worker.assign(static_cast<std::size_t>(n), 0);
  flow->remaining.store(n, std::memory_order_relaxed);

  for (int i = 0; i < n; ++i) {
    Action& action = phase.actions[static_cast<std::size_t>(i)];
    Table* table = db_->GetTable(action.table);
    assert(table != nullptr);
    PartitionId p;
    std::uint32_t uid;
    int worker;
    {
      ReaderMutexLock lk(routing_mu_);
      TableRouting* r = RoutingFor(table);
      assert(r != nullptr && !r->boundaries.empty());
      int lo = 0, hi = static_cast<int>(r->boundaries.size());
      while (lo + 1 < hi) {
        const int mid = (lo + hi) / 2;
        if (Slice(r->boundaries[static_cast<std::size_t>(mid)]) <=
            Slice(action.key)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      p = static_cast<PartitionId>(lo);
      uid = r->uids[p];
      r->load[p]->fetch_add(1, std::memory_order_relaxed);
      worker = worker_by_uid_[uid];
    }
    if (flow->first_uid == UINT32_MAX) {
      flow->first_uid = uid;
    } else if (uid != flow->first_uid) {
      flow->cross_site = true;
    }
    flow->assigned_worker[static_cast<std::size_t>(i)] = worker;
    ActionResult* slot = &flow->results[static_cast<std::size_t>(i)];
    ActionFn* fn = &action.fn;
    workers_[static_cast<std::size_t>(worker)]->queue.Push(Task{
        [this, flow, table, p, uid, slot, fn] {
          std::vector<std::function<Status()>> undos;
          auto ctx = factory_(table, p, uid, flow->txn, &undos);
          slot->status = (*fn)(*ctx);
          slot->undos = std::move(undos);
          if (flow->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            FinishPhase(flow);
          }
        }});
  }
}

void PartitionManager::FinishPhase(const std::shared_ptr<TxnFlow>& flow) {
  const int n = static_cast<int>(flow->results.size());
  for (int i = 0; i < n; ++i) {
    ActionResult& res = flow->results[static_cast<std::size_t>(i)];
    for (auto& u : res.undos) {
      flow->undo_log.emplace_back(
          flow->assigned_worker[static_cast<std::size_t>(i)], std::move(u));
    }
    if (!res.status.ok() && flow->failure.ok()) flow->failure = res.status;
  }
  if (!flow->failure.ok()) {
    StartAbort(flow);
    return;
  }
  ++flow->phase;
  DispatchPhase(flow);
}

void PartitionManager::StartAbort(const std::shared_ptr<TxnFlow>& flow) {
  TallyFlow(*flow);
  if (flow->undo_log.empty()) {
    (void)db_->txns()->Abort(flow->txn);
    FinishTxn(flow, flow->failure);
    return;
  }
  undo_actions_metric_->Add(flow->undo_log.size());
  flow->undo_remaining.store(static_cast<int>(flow->undo_log.size()),
                             std::memory_order_relaxed);
  // Newest-first; a worker's queue preserves the reversed order for the
  // compensations it owns.
  for (auto it = flow->undo_log.rbegin(); it != flow->undo_log.rend(); ++it) {
    std::function<Status()>* fn = &it->second;
    workers_[static_cast<std::size_t>(it->first)]->queue.Push(Task{
        [this, flow, fn] {
          (void)(*fn)();
          if (flow->undo_remaining.fetch_sub(1, std::memory_order_acq_rel) ==
              1) {
            (void)db_->txns()->Abort(flow->txn);
            FinishTxn(flow, flow->failure);
          }
        }});
  }
}

void PartitionManager::Quiesce() {
  std::uint64_t round;
  {
    MutexLock g(quiesce_mu_);
    round = ++quiesce_round_;
    parked_ = 0;
  }
  for (auto& w : workers_) {
    w->queue.Push(Task{[this, round] {
      MutexLock lk(quiesce_mu_);
      ++parked_;
      quiesce_cv_.notify_all();
      while (resumed_round_ < round) lk.Wait(quiesce_cv_);
    }});
  }
  MutexLock lk(quiesce_mu_);
  while (parked_ != static_cast<int>(workers_.size())) lk.Wait(quiesce_cv_);
}

void PartitionManager::Resume() {
  {
    MutexLock g(quiesce_mu_);
    resumed_round_ = quiesce_round_;
  }
  quiesce_cv_.notify_all();
}

bool PartitionManager::DelegateClean(PageId pid) {
  BufferPool* pool = db_->pool();
  // Pinned refs while inspecting owner tags: with eviction enabled the
  // frame could otherwise be freed mid-read.
  std::uint32_t tag;
  {
    PageRef page = pool->AcquirePage(pid, /*tracked=*/false);
    if (!page) return true;  // evicted/freed meanwhile: nothing to clean
    tag = page->owner_tag();
  }
  if (tag == UINT32_MAX) return false;  // unowned: cleaner handles it
  if ((tag & kUidBit) == 0) {
    // Leaf-owned heap page: the tag is the owning leaf's page id; that
    // leaf's frame carries the partition uid.
    PageRef leaf = pool->AcquirePage(static_cast<PageId>(tag),
                                     /*tracked=*/false);
    if (!leaf) return false;
    tag = leaf->owner_tag();
    if (tag == UINT32_MAX || (tag & kUidBit) == 0) return false;
  }
  const int worker = WorkerForUid(tag);
  if (worker < 0) return false;
  // Capture the id, not the frame: the task runs later, and the frame
  // may have been evicted (freed) by then.
  SubmitSystemTask(worker, [pool, pid] {
    PageCleaner::CleanPage(pool, pid, LatchPolicy::kNone);
  });
  return true;
}

void PartitionManager::SubmitSystemTask(int worker,
                                        std::function<void()> task) {
  workers_[static_cast<std::size_t>(worker)]->queue.PushHighPriority(
      Task{std::move(task)});
}

}  // namespace plp

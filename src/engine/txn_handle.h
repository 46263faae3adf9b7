// Asynchronous-transaction plumbing for Engine::Submit: TxnHandle is the
// client's future-like view of a submitted transaction, TxnToken is the
// engine-internal completion obligation that travels through the worker
// pipeline, and AdmissionGate bounds how many transactions are in flight
// at once (EngineConfig::max_inflight backpressure).
#ifndef PLP_ENGINE_TXN_HANDLE_H_
#define PLP_ENGINE_TXN_HANDLE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

/// Dedicated executor for completion callbacks
/// (EngineConfig::dedicated_callback_thread): a worker that committed a
/// transaction hands the user callback off instead of running it inline,
/// so slow callbacks cannot stall partition workers or the submission
/// pool. Completion ordering is preserved per handle: the callback still
/// runs before Wait() observes the transaction as done.
class CallbackExecutor {
 public:
  CallbackExecutor() : thread_([this] { Loop(); }) {}

  ~CallbackExecutor() {
    {
      MutexLock g(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    // Tasks enqueued after the loop exited (or racing the stop) still run:
    // each task resolves a TxnHandle someone may be waiting on. Drained
    // under the lock, run outside it (a task may re-enter Post).
    std::deque<std::function<void()>> leftovers;
    {
      MutexLock g(mu_);
      leftovers.swap(tasks_);
    }
    for (auto& task : leftovers) task();
  }

  CallbackExecutor(const CallbackExecutor&) = delete;
  CallbackExecutor& operator=(const CallbackExecutor&) = delete;

  /// Enqueues a task; false when the executor is stopping (the caller
  /// runs the task inline instead).
  bool Post(std::function<void()> task) {
    {
      MutexLock g(mu_);
      if (stopping_) return false;
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
    return true;
  }

 private:
  void Loop() {
    MutexLock lk(mu_);
    for (;;) {
      while (!stopping_ && tasks_.empty()) lk.Wait(cv_);
      if (tasks_.empty() && stopping_) return;
      auto task = std::move(tasks_.front());
      tasks_.pop_front();
      lk.Unlock();
      task();
      lk.Lock();
    }
  }

  Mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_ PLP_GUARDED_BY(mu_);
  bool stopping_ PLP_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

/// Counting gate that admits at most `limit` transactions at a time.
/// Submit acquires a slot; completion releases it. Tracks the high-water
/// mark so open-loop drivers can report sustained in-flight depth.
class AdmissionGate {
 public:
  explicit AdmissionGate(std::size_t limit) : limit_(limit == 0 ? 1 : limit) {}

  /// Takes one slot. With `block` waits for room; otherwise fails
  /// immediately when the gate is full. Always fails while the gate is
  /// draining (engine stopping), so blocked submitters cannot starve
  /// WaitIdle forever.
  bool Acquire(bool block) {
    MutexLock lk(mu_);
    if (inflight_ >= limit_ && block && !draining_) {
      // Metrics only on the contended path: the uncontended Acquire never
      // reads the clock.
      const std::uint64_t t0 = NowNanos();
      blocked_metric_->Increment();
      while (inflight_ >= limit_ && !draining_) lk.Wait(cv_);
      wait_metric_->Record((NowNanos() - t0) / 1000);
    }
    if (inflight_ >= limit_ || draining_) {
      rejected_metric_->Increment();
      return false;
    }
    ++inflight_;
    admitted_metric_->Increment();
    if (inflight_ > peak_) peak_ = inflight_;
    return true;
  }

  void Release() {
    std::size_t now;
    {
      MutexLock g(mu_);
      now = --inflight_;
    }
    // One freed slot admits one waiter; the full wakeup is only needed
    // when idle-waiters (drain) might be watching for zero.
    if (now == 0) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
  }

  /// Drains the gate: new acquisitions fail from here on (blocked ones
  /// wake and fail), then blocks until every admitted transaction has
  /// completed. Engines call this at the top of Stop() so no completion
  /// is lost to teardown; Start() calls Reopen() to accept work again.
  void WaitIdle() {
    MutexLock lk(mu_);
    draining_ = true;
    cv_.notify_all();
    while (inflight_ != 0) lk.Wait(cv_);
  }

  void Reopen() {
    MutexLock g(mu_);
    draining_ = false;
  }

  std::size_t limit() const { return limit_; }
  std::size_t inflight() const {
    MutexLock g(mu_);
    return inflight_;
  }
  std::size_t peak() const {
    MutexLock g(mu_);
    return peak_;
  }
  void ResetPeak() {
    MutexLock g(mu_);
    peak_ = inflight_;
  }

  /// Wires the admission metrics (admission.admitted / rejected / blocked
  /// counters and the admission.wait_us histogram). Called once from the
  /// Engine constructor body, before any submission can reach the gate.
  void BindMetrics(Counter* admitted, Counter* rejected, Counter* blocked,
                   Histogram* wait_us) {
    admitted_metric_ = admitted;
    rejected_metric_ = rejected;
    blocked_metric_ = blocked;
    wait_metric_ = wait_us;
  }

 private:
  const std::size_t limit_;
  mutable Mutex mu_;
  std::condition_variable cv_;
  bool draining_ PLP_GUARDED_BY(mu_) = false;
  std::size_t inflight_ PLP_GUARDED_BY(mu_) = 0;
  std::size_t peak_ PLP_GUARDED_BY(mu_) = 0;
  // Bound once before any submission can reach the gate (engine ctor).
  Counter* admitted_metric_ = nullptr;
  Counter* rejected_metric_ = nullptr;
  Counter* blocked_metric_ = nullptr;
  Histogram* wait_metric_ = nullptr;
};

namespace internal {

/// State shared between a TxnHandle (client side) and the TxnToken that
/// moves through the engine's completion pipeline.
struct TxnShared {
  std::atomic<bool> resolved{false};  // first Complete wins
  Mutex mu;
  std::condition_variable cv;
  bool done PLP_GUARDED_BY(mu) = false;
  Status status PLP_GUARDED_BY(mu);
  std::function<void(const Status&)> callback;
  AdmissionGate* gate = nullptr;      // slot released after completion
  CallbackExecutor* executor = nullptr;  // callback off the worker thread
};

/// Second half of completion: frees the admission slot, then releases
/// waiters. Runs after the callback (inline or on the executor).
inline void FinishTxn(const std::shared_ptr<TxnShared>& s, Status status) {
  if (s->gate != nullptr) s->gate->Release();
  {
    MutexLock g(s->mu);
    s->status = std::move(status);
    s->done = true;
  }
  s->cv.notify_all();
}

/// Resolves the transaction exactly once: runs the completion callback
/// (on the calling thread, or on the engine's dedicated callback executor
/// when configured), then frees the admission slot, then releases
/// waiters. Wait()/TryGet() therefore never report completion before the
/// callback has finished — and once Wait() returns, the admission slot is
/// free, so a wait-then-resubmit never bounces off this transaction's own
/// slot.
inline void ResolveTxn(const std::shared_ptr<TxnShared>& s, Status status) {
  if (s->resolved.exchange(true, std::memory_order_acq_rel)) return;
  if (s->callback && s->executor != nullptr) {
    if (s->executor->Post([s, status] {
          s->callback(status);
          FinishTxn(s, status);
        })) {
      return;
    }
    // Executor already stopping: fall through to inline resolution.
  }
  if (s->callback) s->callback(status);
  FinishTxn(s, std::move(status));
}

}  // namespace internal

/// Future-like view of a transaction submitted with Engine::Submit. Copyable
/// and cheap; all copies observe the same completion.
class TxnHandle {
 public:
  TxnHandle() = default;

  /// False only for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  /// Blocks until the transaction commits or aborts; returns the final
  /// status. The completion callback (if any) has finished by the time
  /// this returns. Invalid handles return Internal.
  Status Wait() {
    if (!valid()) return Status::Internal("Wait on invalid TxnHandle");
    MutexLock lk(state_->mu);
    while (!state_->done) lk.Wait(state_->cv);
    return state_->status;
  }

  /// Non-blocking probe: true (and fills `out`) once complete.
  bool TryGet(Status* out) {
    if (!valid()) return false;
    MutexLock g(state_->mu);
    if (!state_->done) return false;
    if (out != nullptr) *out = state_->status;
    return true;
  }

  bool done() {
    return TryGet(nullptr);
  }

 private:
  friend class Engine;
  explicit TxnHandle(std::shared_ptr<internal::TxnShared> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::TxnShared> state_;
};

/// Move-only completion obligation handed to an engine's async pipeline.
/// Calling Complete() resolves the paired TxnHandle; dropping a pending
/// token (e.g. a queue destroyed at shutdown) resolves it with Aborted so
/// no submission is ever silently lost.
class TxnToken {
 public:
  TxnToken() = default;
  TxnToken(TxnToken&&) = default;
  TxnToken& operator=(TxnToken&& other) {
    if (this != &other) {
      Abandon();
      state_ = std::move(other.state_);
    }
    return *this;
  }
  TxnToken(const TxnToken&) = delete;
  TxnToken& operator=(const TxnToken&) = delete;
  ~TxnToken() { Abandon(); }

  void Complete(Status status) {
    if (state_ == nullptr) return;
    internal::ResolveTxn(state_, std::move(status));
    state_.reset();
  }

 private:
  friend class Engine;
  explicit TxnToken(std::shared_ptr<internal::TxnShared> state)
      : state_(std::move(state)) {}

  void Abandon() {
    if (state_ != nullptr) {
      internal::ResolveTxn(state_,
                           Status::Aborted("engine stopped before execution"));
      state_.reset();
    }
  }

  std::shared_ptr<internal::TxnShared> state_;
};

}  // namespace plp

#endif  // PLP_ENGINE_TXN_HANDLE_H_

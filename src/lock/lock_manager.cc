#include "src/lock/lock_manager.h"

#include <atomic>
#include <functional>

#include "src/common/clock.h"
#include "src/metrics/flight_recorder.h"
#include "src/sync/cs_profiler.h"

namespace plp {

LockManager::LockManager(MetricsRegistry* metrics) {
  MetricsRegistry* m =
      metrics != nullptr ? metrics : MetricsRegistry::Scratch();
  acquisitions_metric_ = m->counter("lock.acquisitions");
  waits_metric_ = m->counter("lock.waits");
  timeouts_metric_ = m->counter("lock.timeouts");
  wait_us_metric_ = m->histogram("lock.wait_us");
}

LockManager::Bucket& LockManager::BucketFor(const std::string& name) {
  return buckets_[std::hash<std::string>{}(name) % kNumBuckets];
}

void LockManager::LockBucket(Bucket& bucket) {
  // Timed manually so the wait is charged to the lock manager, not a
  // generic mutex. The site scope is entered only on the contended path.
  std::uint64_t wait_ns = 0;
  if (bucket.mu.LockTimed(&wait_ns)) {
    TraceSiteScope site(TraceSite::kLockTable);
    CsProfiler::Record(CsCategory::kLockMgr, /*contended=*/true, wait_ns);
  } else {
    CsProfiler::Record(CsCategory::kLockMgr, /*contended=*/false);
  }
}

bool LockManager::CanGrant(const LockEntry& entry, TxnId txn, LockMode mode) {
  for (const auto& [holder, held] : entry.holders) {
    if (holder == txn) continue;
    if (!LockCompatible(held, mode)) return false;
  }
  return true;
}

Status LockManager::Acquire(TxnId txn, const std::string& name, LockMode mode,
                            std::chrono::milliseconds timeout) {
  Bucket& bucket = BucketFor(name);

  LockBucket(bucket);
  MutexLock lk(bucket.mu, std::adopt_lock);

  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  acquisitions_metric_->Increment();
  LockEntry& entry = bucket.locks[name];

  auto it = entry.holders.find(txn);
  if (it != entry.holders.end() && LockCovers(it->second, mode)) {
    return Status::OK();
  }

  if (!CanGrant(entry, txn, mode)) {
    waits_metric_->Increment();
    const std::uint64_t wait_start = NowNanos();
    entry.waiters++;
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    bool granted = true;
    while (!CanGrant(bucket.locks[name], txn, mode)) {
      if (lk.WaitUntil(bucket.cv, deadline) == std::cv_status::timeout) {
        granted = CanGrant(bucket.locks[name], txn, mode);
        break;
      }
    }
    bucket.locks[name].waiters--;
    const std::uint64_t waited_ns = NowNanos() - wait_start;
    wait_us_metric_->Record(waited_ns / 1000);
    CsProfiler::RecordWait(CsCategory::kLockMgr, waited_ns);
    {
      TraceSiteScope site(TraceSite::kLockTable);
      FlightRecorder::Emit(TraceEventType::kLockWait, wait_start, waited_ns,
                           waited_ns, granted ? 1 : 0);
    }
    if (!granted) {
      // Deadlock/starvation resolution by timeout: caller aborts.
      timeouts_metric_->Increment();
      return Status::TimedOut("lock wait timeout on " + name);
    }
  }

  LockEntry& final_entry = bucket.locks[name];
  auto& held = final_entry.holders[txn];
  // Keep the strongest of the held/new mode (upgrade path).
  if (held == LockMode::kIS || LockCovers(mode, held)) {
    held = mode;
  } else if (!LockCovers(held, mode)) {
    // Incomparable (S + IX): escalate to X to stay conservative.
    held = LockMode::kX;
  }
  return Status::OK();
}

void LockManager::Release(TxnId txn, const std::string& name) {
  Bucket& bucket = BucketFor(name);
  LockBucket(bucket);
  {
    MutexLock lk(bucket.mu, std::adopt_lock);
    auto it = bucket.locks.find(name);
    if (it != bucket.locks.end()) {
      it->second.holders.erase(txn);
      if (it->second.holders.empty() && it->second.waiters == 0) {
        bucket.locks.erase(it);
      }
    }
  }
  bucket.cv.notify_all();
}

void LockManager::ReleaseAll(TxnId txn, const std::vector<std::string>& names) {
  for (const std::string& name : names) Release(txn, name);
}

bool LockManager::HasWaiters(const std::string& name) {
  Bucket& bucket = BucketFor(name);
  MutexLock lk(bucket.mu);
  auto it = bucket.locks.find(name);
  return it != bucket.locks.end() && it->second.waiters > 0;
}

std::string TableLockName(std::uint32_t table_id) {
  return "t" + std::to_string(table_id);
}

std::string RecordLockName(std::uint32_t table_id, const std::string& key) {
  return "t" + std::to_string(table_id) + ":" + key;
}

}  // namespace plp

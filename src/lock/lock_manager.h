// Centralized lock manager (the conventional system's logical concurrency
// control). Every acquisition passes through a lock-table bucket critical
// section — the unscalable communication that SLI and logical partitioning
// attack (Section 2.2).
#ifndef PLP_LOCK_LOCK_MANAGER_H_
#define PLP_LOCK_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/lock/lock_mode.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class LockManager {
 public:
  /// `metrics` receives the lock.* metrics (acquisitions, waits, timeouts,
  /// wait-time histogram); nullptr records into MetricsRegistry::Scratch().
  explicit LockManager(MetricsRegistry* metrics = nullptr);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `name` in `mode` for `txn`, waiting up to `timeout`.
  /// kTimedOut doubles as deadlock resolution (the caller aborts).
  /// Acquiring a mode already covered by a held mode is a no-op.
  Status Acquire(TxnId txn, const std::string& name, LockMode mode,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(100));

  /// Releases one lock.
  void Release(TxnId txn, const std::string& name);

  /// Releases a batch (commit/abort path).
  void ReleaseAll(TxnId txn, const std::vector<std::string>& names);

  /// True if some transaction is currently blocked on `name` (SLI uses
  /// this to decide when an inherited lock must be given back).
  bool HasWaiters(const std::string& name);

  std::uint64_t num_acquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNumBuckets = 256;

  struct LockEntry {
    std::map<TxnId, LockMode> holders;
    int waiters = 0;
  };

  struct Bucket {
    Mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, LockEntry> locks PLP_GUARDED_BY(mu);
  };

  Bucket& BucketFor(const std::string& name);

  /// Enters the bucket's critical section, charged to the lock manager
  /// (a contended entry also to the kLockTable site).
  static void LockBucket(Bucket& bucket) PLP_ACQUIRE(bucket.mu);

  /// Grant check under the bucket mutex.
  static bool CanGrant(const LockEntry& entry, TxnId txn, LockMode mode);

  Bucket buckets_[kNumBuckets];
  std::atomic<std::uint64_t> acquisitions_{0};

  // Registry metrics (cached pointers; see the constructor).
  Counter* acquisitions_metric_ = nullptr;
  Counter* waits_metric_ = nullptr;
  Counter* timeouts_metric_ = nullptr;
  Histogram* wait_us_metric_ = nullptr;
};

/// Conventional lock-name helpers: table-level intents plus record locks.
std::string TableLockName(std::uint32_t table_id);
std::string RecordLockName(std::uint32_t table_id, const std::string& key);

}  // namespace plp

#endif  // PLP_LOCK_LOCK_MANAGER_H_

// Instrumented page latches and categorized mutexes — the engine's
// capability-typed synchronization layer.
//
// Every lockable type here is a clang thread-safety capability
// (src/sync/thread_annotations.h): shared state annotates the capability
// that guards it with PLP_GUARDED_BY, and `clang++ -Wthread-safety`
// machine-checks the discipline. Raw std::mutex / std::lock_guard /
// std::unique_lock are confined to this directory — the analysis cannot
// see through them — so engine code always locks through these wrappers
// (enforced by tools/lint_invariants.py).
#ifndef PLP_SYNC_LATCH_H_
#define PLP_SYNC_LATCH_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "src/common/clock.h"
#include "src/sync/cs_profiler.h"
#include "src/sync/thread_annotations.h"

namespace plp {

/// Latch acquisition mode.
enum class LatchMode { kShared, kExclusive };

/// Whether an access method acquires page latches. Partition-owned
/// structures in PLP run with kNone: exactly one thread touches the pages,
/// so no physical synchronization is required (Section 3.2.2).
enum class LatchPolicy { kLatched, kNone };

/// Reader-writer page latch with contention instrumentation. Every
/// acquisition is recorded against the page class it protects.
///
/// As a capability, the latch models *ownership*, not just physical
/// locking: under LatchPolicy::kNone a LatchGuard still confers the
/// capability without touching the mutex — the partition-ownership
/// discipline is what makes the access safe, and the annotations document
/// exactly which accesses rely on it.
class PLP_CAPABILITY("latch") Latch {
 public:
  explicit Latch(PageClass page_class = PageClass::kCatalog)
      : page_class_(page_class) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void set_page_class(PageClass c) { page_class_ = c; }
  PageClass page_class() const { return page_class_; }

  void AcquireShared() PLP_ACQUIRE_SHARED() {
    if (mu_.try_lock_shared()) {
      CsProfiler::RecordLatch(page_class_, /*contended=*/false);
      return;
    }
    const std::uint64_t t0 = NowNanos();
    mu_.lock_shared();
    CsProfiler::RecordLatch(page_class_, /*contended=*/true, NowNanos() - t0);
  }
  void ReleaseShared() PLP_RELEASE_SHARED() { mu_.unlock_shared(); }

  void AcquireExclusive() PLP_ACQUIRE() {
    if (mu_.try_lock()) {
      CsProfiler::RecordLatch(page_class_, /*contended=*/false);
      return;
    }
    const std::uint64_t t0 = NowNanos();
    mu_.lock();
    CsProfiler::RecordLatch(page_class_, /*contended=*/true, NowNanos() - t0);
  }
  void ReleaseExclusive() PLP_RELEASE() { mu_.unlock(); }

  /// Non-blocking exclusive acquisition, for paths that must never wait on
  /// a latch while holding pool-internal locks (eviction-time unswizzle).
  bool TryAcquireExclusive() PLP_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    CsProfiler::RecordLatch(page_class_, /*contended=*/false);
    return true;
  }

  /// Mode-dispatched acquire/release. The analysis cannot type a
  /// runtime-chosen mode, so the contract is declared as the stronger
  /// (exclusive) capability and Release is generic; the bodies opt out.
  // protocol: runtime latch-mode dispatch (crabbing picks shared vs
  // exclusive per level; exclusive-acquire contract is the safe over-
  // approximation for the analysis).
  void Acquire(LatchMode mode) PLP_ACQUIRE() PLP_NO_THREAD_SAFETY_ANALYSIS {
    if (mode == LatchMode::kShared) {
      AcquireShared();
    } else {
      AcquireExclusive();
    }
  }
  // protocol: runtime latch-mode dispatch (see Acquire).
  void Release(LatchMode mode) PLP_RELEASE_GENERIC()
      PLP_NO_THREAD_SAFETY_ANALYSIS {
    if (mode == LatchMode::kShared) {
      ReleaseShared();
    } else {
      ReleaseExclusive();
    }
  }

 private:
  std::shared_mutex mu_;
  PageClass page_class_;
};

/// RAII guard honoring a LatchPolicy: under kNone the acquisition is skipped
/// entirely — the code path the paper makes possible. To the analysis the
/// guard *always* confers the latch capability: kNone means the partition-
/// ownership discipline (one worker per partition) substitutes for the
/// physical latch, which is precisely the invariant the annotations encode.
class PLP_SCOPED_CAPABILITY LatchGuard {
 public:
  // protocol: policy-elided latching — under LatchPolicy::kNone ownership
  // substitutes for the physical acquire (Section 3.2.2).
  LatchGuard(Latch* latch, LatchMode mode,
             LatchPolicy policy) PLP_ACQUIRE(latch)
      : latch_(policy == LatchPolicy::kLatched ? latch : nullptr),
        mode_(mode) {
    if (latch_ != nullptr) latch_->Acquire(mode_);
  }
  ~LatchGuard() PLP_RELEASE() { ReleaseImpl(); }

  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

  /// Early release (used by latch crabbing).
  void Release() PLP_RELEASE() { ReleaseImpl(); }

 private:
  // protocol: policy-elided latching (see constructor) — the physical
  // release only happens when the physical acquire did.
  void ReleaseImpl() PLP_NO_THREAD_SAFETY_ANALYSIS {
    if (latch_ != nullptr) {
      latch_->Release(mode_);
      latch_ = nullptr;
    }
  }

  Latch* latch_;
  LatchMode mode_;
};

/// Mutex whose acquisitions are tallied under a CsCategory; protects
/// internal storage-manager state (lock-table buckets, buffer-pool shards,
/// the transaction table, catalog structures, ...).
class PLP_CAPABILITY("mutex") TrackedMutex {
 public:
  explicit TrackedMutex(CsCategory category) : category_(category) {}

  TrackedMutex(const TrackedMutex&) = delete;
  TrackedMutex& operator=(const TrackedMutex&) = delete;

  void lock() PLP_ACQUIRE() {
    if (mu_.try_lock()) {
      CsProfiler::Record(category_, /*contended=*/false);
      return;
    }
    const std::uint64_t t0 = NowNanos();
    mu_.lock();
    CsProfiler::Record(category_, /*contended=*/true, NowNanos() - t0);
  }
  void unlock() PLP_RELEASE() { mu_.unlock(); }
  bool try_lock() PLP_TRY_ACQUIRE(true) {
    bool ok = mu_.try_lock();
    if (ok) CsProfiler::Record(category_, false);
    return ok;
  }

  /// Access to the raw mutex for condition-variable waits; the caller is
  /// responsible for recording the entry.
  std::mutex& raw() { return mu_; }
  CsCategory category() const { return category_; }

 private:
  std::mutex mu_;
  CsCategory category_;
};

/// Scoped lock over a TrackedMutex (profiled acquire, capability-visible).
class PLP_SCOPED_CAPABILITY TrackedMutexLock {
 public:
  explicit TrackedMutexLock(TrackedMutex& mu) PLP_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~TrackedMutexLock() PLP_RELEASE() { mu_.unlock(); }

  TrackedMutexLock(const TrackedMutexLock&) = delete;
  TrackedMutexLock& operator=(const TrackedMutexLock&) = delete;

 private:
  TrackedMutex& mu_;
};

/// Scoped lock over a TrackedMutex that bypasses the profiler tally —
/// for internal paths whose cost is charged elsewhere (buffer-pool miss
/// internals). Confers the same capability as TrackedMutexLock.
class PLP_SCOPED_CAPABILITY TrackedMutexUnprofiledLock {
 public:
  explicit TrackedMutexUnprofiledLock(TrackedMutex& mu) PLP_ACQUIRE(mu)
      : mu_(mu) {
    mu_.raw().lock();
  }
  ~TrackedMutexUnprofiledLock() PLP_RELEASE() { mu_.raw().unlock(); }

  TrackedMutexUnprofiledLock(const TrackedMutexUnprofiledLock&) = delete;
  TrackedMutexUnprofiledLock& operator=(const TrackedMutexUnprofiledLock&) =
      delete;

 private:
  TrackedMutex& mu_;
};

/// Annotated plain mutex (uninstrumented internal state: coordinator
/// flags, side tables, registries). The capability-layer replacement for a
/// bare std::mutex member.
class PLP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PLP_ACQUIRE() { mu_.lock(); }
  void unlock() PLP_RELEASE() { mu_.unlock(); }
  bool try_lock() PLP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Acquires, reporting whether the fast-path try-lock missed (critical-
  /// section contention accounting; MpscQueue's message-passing tally).
  bool LockNoteContended() PLP_ACQUIRE() {
    if (mu_.try_lock()) return false;
    mu_.lock();
    return true;
  }

  /// Acquires, reporting whether the fast path missed and how long the
  /// contended path waited (lock-table bucket accounting).
  bool LockTimed(std::uint64_t* wait_ns) PLP_ACQUIRE() {
    *wait_ns = 0;
    if (mu_.try_lock()) return false;
    const std::uint64_t t0 = NowNanos();
    mu_.lock();
    *wait_ns = NowNanos() - t0;
    return true;
  }

  /// Raw handle for condition-variable waits inside MutexLock only.
  std::mutex& raw() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex with condition-variable support. Relockable:
/// Unlock()/Lock() let loop bodies drop the mutex (CallbackExecutor), and
/// Wait* methods run a std::condition_variable wait while the analysis
/// keeps treating the capability as held (the wait reacquires before
/// returning, so guarded accesses between waits are safe).
///
/// Predicate waits are deliberately absent: a predicate lambda is analyzed
/// as a separate function that cannot see the held capability, so callers
/// write `while (!pred) lk.Wait(cv);` — same semantics, checkable.
class PLP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PLP_ACQUIRE(mu) : mu_(mu), lk_(mu.raw()) {}
  /// Adopts a mutex the caller already locked (e.g. via LockTimed).
  MutexLock(Mutex& mu, std::adopt_lock_t) PLP_REQUIRES(mu)
      : mu_(mu), lk_(mu.raw(), std::adopt_lock) {}
  ~MutexLock() PLP_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() PLP_RELEASE() { lk_.unlock(); }
  void Lock() PLP_ACQUIRE() { lk_.lock(); }

  void Wait(std::condition_variable& cv) { cv.wait(lk_); }
  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      std::condition_variable& cv,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv.wait_until(lk_, deadline);
  }
  template <class Rep, class Period>
  std::cv_status WaitFor(std::condition_variable& cv,
                         const std::chrono::duration<Rep, Period>& dur) {
    return cv.wait_for(lk_, dur);
  }

 private:
  Mutex& mu_;
  std::unique_lock<std::mutex> lk_;
};

/// Annotated reader-writer mutex (routing tables, partition tables).
class PLP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() PLP_ACQUIRE() { mu_.lock(); }
  void unlock() PLP_RELEASE() { mu_.unlock(); }
  void lock_shared() PLP_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() PLP_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Shared (reader) scoped lock over SharedMutex.
class PLP_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) PLP_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() PLP_RELEASE() {
    if (held_) mu_.unlock_shared();
  }

  /// Early release, e.g. to drop the read lock before blocking I/O.
  void Unlock() PLP_RELEASE() {
    mu_.unlock_shared();
    held_ = false;
  }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

/// Exclusive (writer) scoped lock over SharedMutex.
class PLP_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) PLP_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() PLP_RELEASE() {
    if (held_) mu_.unlock();
  }

  /// Early release, e.g. to persist outside the layout critical section.
  void Unlock() PLP_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

}  // namespace plp

#endif  // PLP_SYNC_LATCH_H_

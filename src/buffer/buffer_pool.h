// Buffer pool: allocation and id->frame translation for database pages.
//
// The resident path is lock-free: a chunked directory of atomic Page*
// entries (indexed directly by PageId) resolves fixes without touching the
// per-shard bucket mutexes, which now guard only structural changes
// (page-in, eviction, free) and writer-side iteration. A fix that needs a
// pin uses a pin/fence/revalidate protocol against the evictor's
// retract/fence/pin-check, so a steal and a lock-free fix can never both
// win. Frames are type-stable — they live in pool-owned mmap'd slabs,
// evicted frames are recycled through a free list and only the pool's
// destructor unmaps them — so a stale directory read is always safe to
// dereference.
//
// Pointer swizzling (Foster-B-tree lineage, see docs/buffer_pool.md): a
// parent index page whose child is resident may replace the child's PageId
// in its own cell with a tagged frame index (kSwizzledRefBit). Hot B+Tree
// descents then resolve children with zero page-table lookups. Swizzled
// refs are a runtime-only encoding: eviction unswizzles lazily
// (parent-latched) before a frame becomes a steal victim, and every
// write-back/WAL image is sanitized first. The entry-rewrite knowledge
// lives in src/index; the pool calls back through BufferPoolConfig hooks.
//
// Durable mode (frame_budget > 0 and a DiskManager): the pool is a cache
// over the data file. Misses read the page image back from disk; when the
// budget is exceeded a clock sweep picks an unpinned victim — preferring
// clean frames, whose steal is a pure detach — honors the WAL rule for
// dirty victims (log forced durable up to the victim's page_lsn before the
// write-back), and notifies eviction listeners so thread-private
// PageCaches drop the frame. Heap and index frames are candidates (index
// pages are physiologically logged, see src/index/persistent); catalog
// frames always stay resident (rebuilt on restart).
#ifndef PLP_BUFFER_BUFFER_POOL_H_
#define PLP_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/buffer/page.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"
#include "src/sync/spinlock.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class BufferPool;
class DiskManager;

struct BufferPoolConfig {
  /// Maximum resident frames; 0 = unlimited (memory-resident mode, never
  /// evict). Eviction also requires `disk` to steal dirty pages into.
  std::size_t frame_budget = 0;
  /// Backing store for evicted pages and restart reads. Not owned.
  DiskManager* disk = nullptr;
  /// WAL rule: called with a dirty victim's page_lsn before its frame is
  /// written back; must make the log durable up to that LSN. May be null
  /// (no logging, e.g. unit tests).
  std::function<void(Lsn)> wal_barrier;
  // Pointer swizzling for resident index descents is on exactly when both
  // unswizzle hooks are supplied (the cell-rewrite knowledge lives in
  // src/index).

  /// Replaces any swizzled reference to `frame_index` inside `parent`
  /// (an internal index page) with the plain PageId `plain`. Called with
  /// the parent exclusively latched (or provably private). Returns true
  /// when the parent no longer references the frame.
  std::function<bool(Page* parent, std::uint32_t frame_index, PageId plain)>
      unswizzle_child;
  /// Rewrites every swizzled child reference in `page` back to a plain
  /// PageId and clears the children's swizzle markers. Called before any
  /// byte-copy of the page leaves the pool (write-back), with the page
  /// pinned-to-zero under the shard mutex, latched, or quiesced.
  std::function<void(Page* page, BufferPool* pool)> unswizzle_all;
  /// Registry for the buffer_pool.* / swizzle.* metrics; nullptr records
  /// into MetricsRegistry::Scratch() and registers no gauge provider.
  MetricsRegistry* metrics = nullptr;
};

/// A fixed page reference. In durable mode it holds a pin that blocks
/// eviction for the lifetime of the guard; in memory-resident mode it is a
/// plain pointer. Move-only.
class PageRef {
 public:
  PageRef() = default;
  PageRef(Page* page, bool pinned) : page_(page), pinned_(pinned) {}
  ~PageRef() { Reset(); }

  PageRef(PageRef&& other) noexcept
      : page_(other.page_), pinned_(other.pinned_) {
    other.page_ = nullptr;
    other.pinned_ = false;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Reset();
      page_ = other.page_;
      pinned_ = other.pinned_;
      other.page_ = nullptr;
      other.pinned_ = false;
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  void Reset() {
    if (pinned_ && page_ != nullptr) page_->Unpin();
    page_ = nullptr;
    pinned_ = false;
  }

 private:
  Page* page_ = nullptr;
  bool pinned_ = false;
};

class BufferPool {
 public:
  BufferPool() : BufferPool(BufferPoolConfig{}) {}
  explicit BufferPool(BufferPoolConfig config);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// True when the pool runs with a frame budget over a disk file.
  bool evicting() const {
    return config_.frame_budget > 0 && config_.disk != nullptr;
  }

  /// True when index descents may install swizzled child references.
  bool swizzling_enabled() const { return swizzling_on_; }

  /// Allocates a fresh zeroed page of the given class, reusing a freed
  /// data-file slot id when the DiskManager has one.
  Page* NewPage(PageClass page_class);

  /// Recovery path: materializes the frame for a specific page id (no-op
  /// when it already exists — including on disk). Keeps the id allocator
  /// ahead of `id`.
  Page* NewPageWithId(PageId id, PageClass page_class);

  /// Restart path: keeps the id allocator ahead of every id the log or
  /// data file ever used, so fresh allocations (e.g. rebuilt index pages)
  /// never collide with pages recovery is about to replay.
  void EnsureNextPageIdAtLeast(PageId id) {
    PageId expected = next_page_id_.load(std::memory_order_relaxed);
    while (expected < id && !next_page_id_.compare_exchange_weak(
                                expected, id, std::memory_order_relaxed)) {
    }
  }

  /// Current allocator position (checkpointed as the high-water mark).
  PageId peek_next_page_id() const {
    return next_page_id_.load(std::memory_order_relaxed);
  }

  /// Translates a page id to its frame. Resident pages resolve through the
  /// lock-free directory with no critical section; only a miss falls back
  /// to the shard mutex and, in durable mode, the data file. Returns
  /// nullptr for freed/unknown ids.
  Page* Fix(PageId id);

  /// Historical alias of Fix for callers that own the page exclusively
  /// (thread-private caches); identical on the lock-free resident path,
  /// and skips critical-section accounting on the miss path.
  Page* FixUnlocked(PageId id);

  /// Pin-holding variants for operations that touch page contents while
  /// eviction may run concurrently. `tracked` selects Fix vs FixUnlocked
  /// critical-section accounting on the miss path.
  PageRef AcquirePage(PageId id, bool tracked);
  /// `volatile_index` marks index pages of unlogged (secondary) trees:
  /// rebuilt from scratch on reopen. Any data.db slot a write-back
  /// allocates for them is flagged volatile on disk, reclaimed into the
  /// free-slot list at the next open, and reused by NewPage — see
  /// docs/buffer_pool.md (the former leak counted by
  /// buffer_pool.leaked_index_slots, which now stays 0).
  PageRef AllocatePage(PageClass page_class, std::uint32_t table_tag,
                       bool volatile_index = false);

  /// Returns the frame to the pool (and frees the disk slot for reuse).
  /// The caller must guarantee no other thread holds a reference.
  void FreePage(PageId id);

  std::size_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }

  /// Up to `limit` currently-dirty page ids (page-cleaner scan).
  std::vector<PageId> DirtyPages(std::size_t limit);

  /// (page id, rec_lsn) of every dirty persistable frame (heap and
  /// index, given a disk) — the dirty page table of a fuzzy
  /// checkpoint. A rec_lsn of 0 means "unknown, recover from the log
  /// start".
  std::vector<std::pair<PageId, Lsn>> DirtyPageTable();

  /// Writes one resident page back (WAL barrier + disk write + MarkClean).
  /// The frame stays resident. `policy` guards the frame copy: kLatched
  /// takes a latch (cleaner threads; exclusive for index pages so the
  /// in-place unswizzle is private), kNone trusts the caller's ownership
  /// (partition workers, quiesced shutdown).
  Status FlushPage(PageId id, LatchPolicy policy = LatchPolicy::kLatched);

  /// Writes every dirty frame back (shutdown / sharp checkpoint).
  Status FlushAllDirty(LatchPolicy policy = LatchPolicy::kNone);

  /// Eviction listeners (thread-private PageCache invalidation). `token`
  /// identifies the registration for removal.
  void RegisterEvictionListener(void* token,
                                std::function<void(PageId)> listener);
  void UnregisterEvictionListener(void* token);

  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t disk_reads() const {
    return disk_reads_.load(std::memory_order_relaxed);
  }
  std::uint64_t disk_writes() const {
    return disk_writes_.load(std::memory_order_relaxed);
  }

  // --- Swizzling support (called from src/index under page latches) ----

  /// Resolves a swizzled reference to its frame. Only valid while the
  /// parent holding the reference is latched/owned: the unswizzle protocol
  /// rewrites the parent entry before the frame can be stolen, so a
  /// reference observed under the parent latch is always current.
  Page* SwizzledFrame(PageId ref) const {
    return FrameAt(SwizzledFrameIndex(ref));
  }

  /// Plain PageId behind a (possibly swizzled) child reference.
  PageId RefToPid(PageId ref) const {
    return IsSwizzledRef(ref) ? SwizzledFrame(ref)->id() : ref;
  }

  /// Metric taps for the index-layer install/resolve paths.
  void NoteSwizzleHit() { swizzle_hits_metric_->Increment(); }
  void NoteSwizzleInstalled() {
    swizzle_installs_metric_->Increment();
    swizzled_count_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteUnswizzled() {
    swizzle_unswizzles_metric_->Increment();
    swizzled_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  std::uint64_t swizzled_count() const {
    return swizzled_count_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNumShards = 64;

  // Lock-free directory: PageId-indexed chunked table of atomic Page*.
  static constexpr std::size_t kDirChunkBits = 14;
  static constexpr std::size_t kDirChunkSize = std::size_t{1} << kDirChunkBits;
  static constexpr std::size_t kDirRootSize =
      (std::size_t{1} << 32) >> kDirChunkBits;
  struct DirChunk {
    std::atomic<Page*> slots[kDirChunkSize];
  };

  // Frame arena: frame_root_[hi] is the base of one anonymous mmap'd slab
  // of kFrameChunkSize Page slots, so frame `idx` sits at a fixed address
  // for the pool's lifetime and FrameAt is address arithmetic. Slots turn
  // resident only as TakeFrame constructs them; ~BufferPool unmaps every
  // slab, handing the memory straight back to the OS. mmap rather than
  // operator new: glibc raises its mmap threshold after freeing a large
  // block (the log ring), which would route slab-sized requests into
  // malloc arenas that never shrink.
  static constexpr std::size_t kFrameChunkBits = 10;
  static constexpr std::size_t kFrameChunkSize =
      std::size_t{1} << kFrameChunkBits;
  static constexpr std::size_t kFrameChunkBytes =
      kFrameChunkSize * sizeof(Page);
  static constexpr std::size_t kFrameRootSize = 4096;

  struct Shard {
    TrackedMutex mu{CsCategory::kBufferPool};
    // Authoritative mapping; the lock-free directory mirrors it for
    // readers. Values are arena frames — never deleted here.
    std::unordered_map<PageId, Page*> pages PLP_GUARDED_BY(mu);
  };

  Shard& ShardFor(PageId id) { return *shards_[id % kNumShards]; }

  /// Page classes that may be stolen / written back. Heap always;
  /// index whenever the pool has a disk; catalog never.
  bool Evictable(PageClass c) const {
    return c == PageClass::kHeap ||
           (c == PageClass::kIndex && config_.disk != nullptr);
  }

  // Directory ops. Publish/Retract are called under the owning shard
  // mutex, mirroring every map mutation; Lookup is lock-free.
  Page* DirLookup(PageId id) const;
  void DirPublish(PageId id, Page* page);
  void DirRetract(PageId id);
  std::atomic<Page*>* DirSlot(PageId id, bool create);

  // Frame arena / free-list ops. FrameAt is valid for any index TakeFrame
  // has handed out.
  Page* FrameAt(std::uint32_t idx) const {
    return frame_root_[idx >> kFrameChunkBits].load(
               std::memory_order_acquire) +
           (idx & (kFrameChunkSize - 1));
  }
  Page* TakeFrame(PageId id, PageClass page_class);
  void ReturnFrame(Page* frame);

  /// Looks the id up (lock-free fast path, then its shard); on miss in
  /// durable mode, loads the image from disk into a recycled frame.
  /// `tracked` charges the miss-path bucket mutex as a buffer-pool
  /// critical section; resident hits never record one.
  Page* FixInternal(PageId id, bool tracked, bool pin);

  /// Loads `id` from disk. The read runs without the shard mutex (the
  /// frame is invisible until published). Returns nullptr if not on disk.
  Page* LoadFromDisk(PageId id, Shard& shard) PLP_EXCLUDES(shard.mu);

  /// Evicts until a new frame fits in the budget. Best-effort: gives up
  /// when every candidate is pinned or referenced.
  void EnsureBudget() PLP_EXCLUDES(clock_mu_);

  /// One clock-sweep eviction. Returns false when no victim qualifies.
  /// Nests shard mutexes inside clock_mu_ — callers must hold neither.
  bool EvictOne() PLP_EXCLUDES(clock_mu_);

  /// Rewrites the parent entry pointing at `child` back to a plain PageId
  /// (parent latched via try-lock — never blocks). Returns true when the
  /// child is no longer swizzled.
  bool TryUnswizzle(Page* child);

  /// Sanitizes an index page's child entries before a byte-copy leaves
  /// the pool. No-op for non-index pages or when swizzling is off.
  void UnswizzleForWriteBack(Page* page);

  /// Writes a frame image to the data file (honoring the WAL rule).
  /// The NoClean variant leaves the dirty bit for the caller to resolve
  /// (eviction re-validates under the shard mutex first).
  Status WriteBackNoClean(Page* page);
  Status WriteBack(Page* page);

  void NotifyEvicted(PageId id) PLP_EXCLUDES(listeners_mu_);

  /// Adds an evictable frame to the clock. Must run outside the shard
  /// mutex: EvictOne acquires shard mutexes while holding clock_mu_, so
  /// nesting clock_mu_ inside a shard mutex would be an ABBA deadlock.
  void TrackFrame(Page* page) PLP_EXCLUDES(clock_mu_);

  BufferPoolConfig config_;
  bool swizzling_on_ = false;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<PageId> next_page_id_{1};
  std::atomic<std::size_t> num_pages_{0};

  std::unique_ptr<std::atomic<DirChunk*>[]> dir_root_;
  Mutex dir_alloc_mu_;

  std::unique_ptr<std::atomic<Page*>[]> frame_root_;
  Mutex frames_mu_;
  std::uint32_t frame_count_ PLP_GUARDED_BY(frames_mu_) = 0;
  std::vector<Page*> free_frames_ PLP_GUARDED_BY(frames_mu_);

  // Clock sweep over eviction candidates (heap-class frames).
  Mutex clock_mu_;
  std::vector<PageId> clock_ PLP_GUARDED_BY(clock_mu_);
  std::size_t clock_hand_ PLP_GUARDED_BY(clock_mu_) = 0;

  Spinlock listeners_mu_;
  std::vector<std::pair<void*, std::function<void(PageId)>>> listeners_
      PLP_GUARDED_BY(listeners_mu_);

  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> disk_reads_{0};
  std::atomic<std::uint64_t> disk_writes_{0};
  std::atomic<std::uint64_t> swizzled_count_{0};

  // Registry metrics (cached pointers; see BufferPoolConfig::metrics).
  MetricsRegistry* metrics_ = nullptr;  // non-null only when bound
  Counter* hits_metric_ = nullptr;
  Counter* misses_metric_ = nullptr;
  Counter* evictions_metric_ = nullptr;
  Counter* eviction_writebacks_metric_ = nullptr;
  Counter* flush_writebacks_metric_ = nullptr;
  Counter* leaked_index_slots_metric_ = nullptr;
  Counter* swizzle_hits_metric_ = nullptr;
  Counter* swizzle_installs_metric_ = nullptr;
  Counter* swizzle_unswizzles_metric_ = nullptr;
  Histogram* miss_stall_us_metric_ = nullptr;
  Histogram* writeback_stall_us_metric_ = nullptr;
};

/// Thread-private id->frame cache for partition workers (PLP): repeated
/// accesses to owned pages skip even the lock-free fix. The eviction
/// listener drops entries for stolen frames so the *cache* never serves a
/// stale mapping — but the returned Page* is unpinned, so in durable
/// (evicting) mode it is only safe between the owner's own operations,
/// which re-Fix (and pin) through HeapFile/AcquirePage before touching
/// page contents. The tiny spinlock is uncontended in normal operation
/// (only the owner thread touches the cache) and exists so the evictor's
/// invalidation is safe.
class PageCache {
 public:
  explicit PageCache(BufferPool* pool) : pool_(pool) {
    pool_->RegisterEvictionListener(this, [this](PageId id) {
      SpinlockGuard g(mu_);
      cache_.erase(id);
    });
  }
  ~PageCache() { pool_->UnregisterEvictionListener(this); }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  Page* Fix(PageId id) {
    {
      SpinlockGuard g(mu_);
      auto it = cache_.find(id);
      if (it != cache_.end()) return it->second;
    }
    // Acquire pinned for the insert: the pin blocks eviction between the
    // lookup and the emplace, so the eviction listener cannot fire for
    // this frame before the cache entry exists (which would leave a
    // permanently dangling pointer behind).
    PageRef ref = pool_->AcquirePage(id, /*tracked=*/true);
    Page* p = ref.get();
    if (p != nullptr) {
      SpinlockGuard g(mu_);
      cache_.emplace(id, p);
    }
    return p;
  }

  void Invalidate(PageId id) {
    SpinlockGuard g(mu_);
    cache_.erase(id);
  }
  void Clear() {
    SpinlockGuard g(mu_);
    cache_.clear();
  }

 private:
  BufferPool* pool_;
  Spinlock mu_;
  std::unordered_map<PageId, Page*> cache_ PLP_GUARDED_BY(mu_);
};

}  // namespace plp

#endif  // PLP_BUFFER_BUFFER_POOL_H_

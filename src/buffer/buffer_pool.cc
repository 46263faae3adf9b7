#include "src/buffer/buffer_pool.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "src/common/clock.h"
#include "src/io/disk_manager.h"
#include "src/metrics/flight_recorder.h"

namespace plp {

BufferPool::BufferPool(BufferPoolConfig config) : config_(std::move(config)) {
  shards_.reserve(kNumShards);
  for (std::size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  dir_root_ = std::make_unique<std::atomic<DirChunk*>[]>(kDirRootSize);
  frame_root_ = std::make_unique<std::atomic<Page*>[]>(kFrameRootSize);
  swizzling_on_ = config_.unswizzle_child != nullptr &&
                  config_.unswizzle_all != nullptr;
  if (config_.disk != nullptr) {
    // Keep the id allocator ahead of everything already on disk.
    next_page_id_.store(config_.disk->max_page_id() + 1,
                        std::memory_order_relaxed);
  }
  metrics_ = config_.metrics;
  MetricsRegistry* m =
      metrics_ != nullptr ? metrics_ : MetricsRegistry::Scratch();
  hits_metric_ = m->counter("buffer_pool.hits");
  misses_metric_ = m->counter("buffer_pool.misses");
  evictions_metric_ = m->counter("buffer_pool.evictions");
  eviction_writebacks_metric_ = m->counter("buffer_pool.eviction_writebacks");
  flush_writebacks_metric_ = m->counter("buffer_pool.flush_writebacks");
  leaked_index_slots_metric_ = m->counter("buffer_pool.leaked_index_slots");
  swizzle_hits_metric_ = m->counter("swizzle.hits");
  swizzle_installs_metric_ = m->counter("swizzle.installs");
  swizzle_unswizzles_metric_ = m->counter("swizzle.unswizzles");
  miss_stall_us_metric_ = m->histogram("buffer_pool.miss_stall_us");
  writeback_stall_us_metric_ = m->histogram("buffer_pool.writeback_stall_us");
  if (metrics_ != nullptr) {
    metrics_->RegisterGaugeProvider(this, [this](const GaugeSink& sink) {
      sink("buffer_pool.resident_pages",
           static_cast<std::int64_t>(num_pages()));
      sink("buffer_pool.frame_budget",
           static_cast<std::int64_t>(config_.frame_budget));
      sink("buffer_pool.dirty_pages",
           static_cast<std::int64_t>(DirtyPageTable().size()));
      sink("buffer_pool.disk_reads", static_cast<std::int64_t>(disk_reads()));
      sink("buffer_pool.disk_writes",
           static_cast<std::int64_t>(disk_writes()));
      sink("buffer_pool.swizzled",
           static_cast<std::int64_t>(swizzled_count()));
      if (config_.disk != nullptr) {
        sink("buffer_pool.free_slots",
             static_cast<std::int64_t>(config_.disk->free_slot_count()));
      }
    });
  }
}

BufferPool::~BufferPool() {
  if (metrics_ != nullptr) metrics_->UnregisterGaugeProvider(this);
  MutexLock g(frames_mu_);
#ifndef NDEBUG
  // Pin-discipline trap (debug builds only): by teardown every Pin()
  // must have been paired by its PageRef/PinGuard. A surviving pin means
  // a guard leaked somewhere — in a live pool that frame is silently
  // unevictable forever, so fail loudly here where it is attributable.
  // Walks every arena frame, so recycled frames on the free list (a pin
  // leaked across a steal or FreePage) are covered too. The
  // flight-recorder black box ships with the abort: the last events per
  // thread usually name the access path that leaked the guard.
  bool leaked_pin = false;
  for (std::uint32_t i = 0; i < frame_count_; ++i) {
    if (FrameAt(i)->pin_count() != 0) leaked_pin = true;
  }
  if (leaked_pin) {
    FlightRecorder::Global().DumpBlackBox(2);
    assert(!"leaked pin at BufferPool teardown (unpaired Page::Pin)");
  }
#endif
  for (std::size_t i = 0; i < kDirRootSize; ++i) {
    delete dir_root_[i].load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < frame_count_; ++i) FrameAt(i)->~Page();
  for (std::size_t i = 0; i < kFrameRootSize; ++i) {
    Page* chunk = frame_root_[i].load(std::memory_order_relaxed);
    if (chunk == nullptr) break;
    // Clear the shadow so a later mapping at this address starts clean.
    ASAN_UNPOISON_MEMORY_REGION(chunk, kFrameChunkBytes);
    munmap(chunk, kFrameChunkBytes);
  }
}

// --- Lock-free directory ---------------------------------------------------

std::atomic<Page*>* BufferPool::DirSlot(PageId id, bool create) {
  const std::size_t hi = id >> kDirChunkBits;
  DirChunk* chunk = dir_root_[hi].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    if (!create) return nullptr;
    MutexLock g(dir_alloc_mu_);
    chunk = dir_root_[hi].load(std::memory_order_acquire);
    if (chunk == nullptr) {
      chunk = new DirChunk();
      dir_root_[hi].store(chunk, std::memory_order_release);
    }
  }
  return &chunk->slots[id & (kDirChunkSize - 1)];
}

Page* BufferPool::DirLookup(PageId id) const {
  const std::size_t hi = id >> kDirChunkBits;
  DirChunk* chunk = dir_root_[hi].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  // seq_cst: the revalidating load of the pin/fence/revalidate protocol
  // must order against the evictor's retract/fence/pin-check (Dekker).
  return chunk->slots[id & (kDirChunkSize - 1)].load(
      std::memory_order_seq_cst);
}

void BufferPool::DirPublish(PageId id, Page* page) {
  DirSlot(id, /*create=*/true)->store(page, std::memory_order_seq_cst);
}

void BufferPool::DirRetract(PageId id) {
  std::atomic<Page*>* slot = DirSlot(id, /*create=*/false);
  if (slot != nullptr) slot->store(nullptr, std::memory_order_seq_cst);
}

// --- Type-stable frame arena -----------------------------------------------

Page* BufferPool::TakeFrame(PageId id, PageClass page_class) {
  Page* slot = nullptr;
  std::uint32_t idx = 0;
  {
    MutexLock g(frames_mu_);
    if (!free_frames_.empty()) {
      Page* frame = free_frames_.back();
      free_frames_.pop_back();
      frame->Reinit(id, page_class);
      return frame;
    }
    idx = frame_count_;
    const std::size_t hi = idx >> kFrameChunkBits;
    if (hi == kFrameRootSize) {
      std::fprintf(stderr, "FATAL: buffer pool frame arena exhausted (%zu "
                   "frames)\n", kFrameRootSize * kFrameChunkSize);
      std::abort();
    }
    Page* chunk = frame_root_[hi].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      void* base = mmap(nullptr, kFrameChunkBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (base == MAP_FAILED) {
        std::fprintf(stderr, "FATAL: frame slab mmap failed: %s\n",
                     std::strerror(errno));
        std::abort();
      }
      // Unconstructed slots stay poisoned, so a FrameAt on an index never
      // handed out is reported instead of reading zeroed memory.
      ASAN_POISON_MEMORY_REGION(base, kFrameChunkBytes);
      chunk = static_cast<Page*>(base);
      frame_root_[hi].store(chunk, std::memory_order_release);
    }
    slot = chunk + (idx & (kFrameChunkSize - 1));
    frame_count_ = idx + 1;
  }
  // The slot is reserved and unreachable until the caller publishes the
  // frame, so constructing it (8 KiB of first-touch page faults) needs
  // no lock.
  ASAN_UNPOISON_MEMORY_REGION(slot, sizeof(Page));
  return new (slot) Page(id, page_class, idx);
}

void BufferPool::ReturnFrame(Page* frame) {
  MutexLock g(frames_mu_);
  free_frames_.push_back(frame);
}

// ---------------------------------------------------------------------------

void BufferPool::TrackFrame(Page* page) {
  if (!evicting() || !Evictable(page->page_class())) return;
  page->SetRef();
  MutexLock g(clock_mu_);
  clock_.push_back(page->id());
}

Page* BufferPool::NewPage(PageClass page_class) {
  if (evicting()) EnsureBudget();
  PageId id = kInvalidPageId;
  if (config_.disk != nullptr) {
    PageId cand;
    while ((cand = config_.disk->TakeFreeId()) != kInvalidPageId) {
      // A reclaimed slot id may have been re-materialized since the free
      // list was built (recovery replay); skip anything resident or live.
      if (DirLookup(cand) == nullptr && !config_.disk->Contains(cand)) {
        id = cand;
        break;
      }
    }
  }
  if (id == kInvalidPageId) {
    id = next_page_id_.fetch_add(1, std::memory_order_relaxed);
  }
  Page* raw = TakeFrame(id, page_class);
  Shard& shard = ShardFor(id);
  {
    TrackedMutexLock g(shard.mu);
    shard.pages.emplace(id, raw);
    DirPublish(id, raw);
  }
  num_pages_.fetch_add(1, std::memory_order_relaxed);
  TrackFrame(raw);
  return raw;
}

Page* BufferPool::NewPageWithId(PageId id, PageClass page_class) {
  // Keep the allocator ahead of recovered ids.
  PageId expected = next_page_id_.load(std::memory_order_relaxed);
  while (expected <= id && !next_page_id_.compare_exchange_weak(
                               expected, id + 1, std::memory_order_relaxed)) {
  }
  Shard& shard = ShardFor(id);
  {
    TrackedMutexLock g(shard.mu);
    auto it = shard.pages.find(id);
    if (it != shard.pages.end()) return it->second;
  }
  if (config_.disk != nullptr) {
    Page* loaded = LoadFromDisk(id, shard);
    if (loaded != nullptr) return loaded;
  }
  if (evicting()) EnsureBudget();
  Page* fresh = TakeFrame(id, page_class);
  Page* raw = nullptr;
  {
    TrackedMutexLock g(shard.mu);
    auto it = shard.pages.find(id);
    if (it != shard.pages.end()) {
      raw = it->second;
    } else {
      shard.pages.emplace(id, fresh);
      DirPublish(id, fresh);
    }
  }
  if (raw != nullptr) {
    ReturnFrame(fresh);
    return raw;
  }
  num_pages_.fetch_add(1, std::memory_order_relaxed);
  TrackFrame(fresh);
  return fresh;
}

Page* BufferPool::LoadFromDisk(PageId id, Shard& shard) {
  if (!config_.disk->Contains(id)) return nullptr;
  if (evicting()) EnsureBudget();
  {
    TrackedMutexUnprofiledLock g(shard.mu);
    auto it = shard.pages.find(id);
    if (it != shard.pages.end()) return it->second;  // lost the race
  }
  // Read straight into a recycled frame without holding the shard mutex:
  // the frame is invisible until published, and concurrent misses on the
  // same shard no longer serialize behind one pread.
  Page* frame = TakeFrame(id, PageClass::kHeap);
  PageSlotHeader header;
  Status st = config_.disk->ReadPage(id, &header, frame->data());
  if (!st.ok()) {
    ReturnFrame(frame);
    return nullptr;
  }
  frame->SetClass(static_cast<PageClass>(header.page_class));
  frame->set_owner_tag(header.owner_tag);
  frame->set_table_tag(header.table_tag);
  frame->set_page_lsn(header.page_lsn);
  if ((header.flags & kSlotFlagVolatileIndex) != 0) {
    frame->set_volatile_index(true);
  }
  Page* winner = nullptr;
  {
    TrackedMutexUnprofiledLock g(shard.mu);
    auto it = shard.pages.find(id);
    if (it != shard.pages.end()) {
      winner = it->second;  // another thread published first
    } else {
      shard.pages.emplace(id, frame);
      DirPublish(id, frame);
      num_pages_.fetch_add(1, std::memory_order_relaxed);
      disk_reads_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (winner != nullptr) {
    ReturnFrame(frame);
    return winner;
  }
  // Outside the shard mutex: TrackFrame takes clock_mu_, and EvictOne
  // acquires shard mutexes while holding clock_mu_ — nesting them here
  // would be an ABBA deadlock.
  TrackFrame(frame);
  return frame;
}

Page* BufferPool::FixInternal(PageId id, bool tracked, bool pin) {
  if (id == kInvalidPageId) return nullptr;
  assert(!IsSwizzledRef(id));
  // Lock-free fast path: resident pages resolve through the directory
  // with no critical section at all. An unpinned fix trusts the caller
  // (memory-resident mode / quiesced access); a pinned fix must survive a
  // racing steal, so it pins first and revalidates the mapping — the
  // evictor retracts the mapping before its own pin check, and both sides
  // fence seq_cst, so at least one of the two observes the other.
  Page* fast = DirLookup(id);
  if (fast != nullptr) {
    if (!pin) {
      hits_metric_->Increment();
      fast->SetRef();
      return fast;
    }
    fast->Pin();
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (DirLookup(id) == fast) {
      hits_metric_->Increment();
      fast->SetRef();
      return fast;
    }
    fast->Unpin();  // lost to a concurrent steal; take the slow path
  }
  Shard& shard = ShardFor(id);
  Page* p = nullptr;
  if (tracked) {
    TrackedMutexLock g(shard.mu);
    auto it = shard.pages.find(id);
    p = it == shard.pages.end() ? nullptr : it->second;
    if (p != nullptr && pin) p->Pin();
  } else {
    TrackedMutexUnprofiledLock g(shard.mu);
    auto it = shard.pages.find(id);
    p = it == shard.pages.end() ? nullptr : it->second;
    if (p != nullptr && pin) p->Pin();
  }
  if (p != nullptr) hits_metric_->Increment();
  if (p == nullptr && config_.disk != nullptr) {
    // Miss: the faulting thread pays EnsureBudget (possibly a full
    // eviction round trip) plus the disk read — the stall the
    // miss_stall_us histogram charges to wal-evicting configurations.
    const std::uint64_t miss_start = NowNanos();
    p = LoadFromDisk(id, shard);
    if (p != nullptr) {
      misses_metric_->Increment();
      miss_stall_us_metric_->Record((NowNanos() - miss_start) / 1000);
      FlightRecorder::Emit(TraceEventType::kBufMissStall, miss_start,
                           NowNanos() - miss_start, id, 0);
    }
    if (p != nullptr && pin) {
      // Benign race: the freshly loaded frame could be evicted before this
      // pin lands; re-fix in that case, after dropping the shard mutex
      // (the retry takes it again).
      bool evicted;
      {
        TrackedMutexUnprofiledLock g(shard.mu);
        auto it = shard.pages.find(id);
        evicted = it == shard.pages.end() || it->second != p;
        if (!evicted) p->Pin();
      }
      if (evicted) return FixInternal(id, tracked, pin);
    }
  }
  if (p != nullptr) p->SetRef();
  return p;
}

Page* BufferPool::Fix(PageId id) {
  return FixInternal(id, /*tracked=*/true, /*pin=*/false);
}

Page* BufferPool::FixUnlocked(PageId id) {
  return FixInternal(id, /*tracked=*/false, /*pin=*/false);
}

PageRef BufferPool::AcquirePage(PageId id, bool tracked) {
  const bool pin = evicting();
  Page* p = FixInternal(id, tracked, pin);
  return PageRef(p, pin && p != nullptr);
}

PageRef BufferPool::AllocatePage(PageClass page_class,
                                 std::uint32_t table_tag,
                                 bool volatile_index) {
  Page* p = NewPage(page_class);
  p->set_table_tag(table_tag);
  if (volatile_index) p->set_volatile_index(true);
  if (evicting()) {
    p->Pin();
    return PageRef(p, /*pinned=*/true);
  }
  return PageRef(p, /*pinned=*/false);
}

void BufferPool::FreePage(PageId id) {
  Page* freed = nullptr;
  Shard& shard = ShardFor(id);
  {
    TrackedMutexLock g(shard.mu);
    auto it = shard.pages.find(id);
    if (it != shard.pages.end()) {
      freed = it->second;
      shard.pages.erase(it);
      DirRetract(id);
      num_pages_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (freed != nullptr && swizzling_on_ &&
      freed->page_class() == PageClass::kIndex) {
    // SMO hooks unswizzle before entries move, so a freed internal page
    // should hold no tagged refs — but sanitize defensively (a missed one
    // would leave a child unevictable with a stale marker forever).
    config_.unswizzle_all(freed, this);
    // If a resident parent still holds a tagged ref to the frame being
    // freed, it must be rewritten to the plain id before the frame is
    // recycled — a stale tagged ref would resolve to the recycled frame's
    // next identity. Free sites quiesce/own the tree, so the try-latch
    // inside succeeds; false only means a transient revalidation race.
    while (freed->swizzle_parent() != kInvalidPageId) {
      if (TryUnswizzle(freed)) break;
      std::this_thread::yield();
    }
  }
  if (config_.disk != nullptr) (void)config_.disk->FreePage(id);
  NotifyEvicted(id);
  if (freed != nullptr) ReturnFrame(freed);
}

void BufferPool::EnsureBudget() {
  // Soft budget: concurrent allocators may overshoot by a frame or two.
  while (num_pages_.load(std::memory_order_relaxed) >= config_.frame_budget) {
    if (!EvictOne()) break;  // everything pinned/non-evictable
  }
}

bool BufferPool::TryUnswizzle(Page* child) {
  const PageId parent_pid = child->swizzle_parent();
  if (parent_pid == kInvalidPageId) return true;
  Page* parent = DirLookup(parent_pid);
  if (parent == nullptr) {
    // The parent left the pool; its image was sanitized on the way out,
    // so the marker is stale.
    NoteUnswizzled();
    child->ClearSwizzleParentIf(parent_pid);
    return child->swizzle_parent() == kInvalidPageId;
  }
  PinGuard parent_pin(parent);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (DirLookup(parent_pid) != parent) return false;
  if (parent->page_class() != PageClass::kIndex) {
    // The parent pid was freed and reused by a non-index page (slot
    // reuse); the swizzled entry died with the old page image.
    NoteUnswizzled();
    child->ClearSwizzleParentIf(parent_pid);
    return child->swizzle_parent() == kInvalidPageId;
  }
  // Exclusive parent latch: mutual exclusion with descents resolving the
  // swizzled entry under a shared latch. try-lock only — this runs under
  // the clock sweep's locks and must never wait.
  if (!parent->latch().TryAcquireExclusive()) return false;
  const bool gone =
      config_.unswizzle_child(parent, child->frame_index(), child->id());
  parent->latch().ReleaseExclusive();
  if (!gone) return false;
  NoteUnswizzled();
  child->ClearSwizzleParentIf(parent_pid);
  return child->swizzle_parent() == kInvalidPageId;
}

void BufferPool::UnswizzleForWriteBack(Page* page) {
  if (!swizzling_on_ || page->page_class() != PageClass::kIndex) return;
  config_.unswizzle_all(page, this);
}

bool BufferPool::EvictOne() {
  TraceSiteScope trace_site(TraceSite::kBufferPoolEvict);
  // Phase 1 — select a candidate under clock_mu_ only (no I/O, no shard
  // mutex nesting beyond a brief peek). The candidate is removed from the
  // clock so concurrent evictors pick different victims; it is re-added
  // if the steal is abandoned. The first rotation prefers CLEAN victims:
  // stealing a clean frame is a pure detach, while a dirty steal pays the
  // WAL barrier (a group-commit fsync join) plus a page write in the
  // faulting thread's latency path. The first dirty candidate seen is
  // remembered as a fallback.
  PageId pid = kInvalidPageId;
  Page* candidate = nullptr;
  Lsn lsn_before = 0;
  {
    MutexLock g(clock_mu_);
    const std::size_t initial = clock_.size();
    std::size_t budget = initial * 2;
    std::size_t seen = 0;
    PageId dirty_pid = kInvalidPageId;
    Page* dirty_page = nullptr;
    Lsn dirty_lsn = 0;
    while (budget-- > 0 && !clock_.empty()) {
      const std::size_t idx = clock_hand_ % clock_.size();
      const PageId candidate_pid = clock_[idx];
      Shard& shard = ShardFor(candidate_pid);
      TrackedMutexUnprofiledLock sg(shard.mu);
      auto it = shard.pages.find(candidate_pid);
      if (it == shard.pages.end()) {
        // Frame already gone (FreePage/steal); drop the stale candidate.
        clock_.erase(clock_.begin() + static_cast<std::ptrdiff_t>(idx));
        continue;
      }
      Page* page = it->second;
      ++clock_hand_;
      ++seen;
      if (page->pin_count() > 0) continue;
      if (page->sticky()) continue;  // index roots stay resident
      if (page->TestAndClearRef()) continue;
      if (page->swizzle_parent() != kInvalidPageId) {
        // Lazy unswizzle right before the frame can become a victim:
        // rewrite the parent's entry under its latch (non-blocking).
        if (!TryUnswizzle(page)) continue;
      }
      if (page->dirty() && seen <= initial) {
        if (dirty_pid == kInvalidPageId) {
          dirty_pid = candidate_pid;
          dirty_page = page;
          dirty_lsn = page->page_lsn();
        }
        continue;
      }
      pid = candidate_pid;
      candidate = page;
      lsn_before = page->page_lsn();
      clock_.erase(clock_.begin() + static_cast<std::ptrdiff_t>(idx));
      if (clock_hand_ > 0) --clock_hand_;  // slot vanished under the hand
      break;
    }
    if (pid == kInvalidPageId && dirty_pid != kInvalidPageId) {
      auto pos = std::find(clock_.begin(), clock_.end(), dirty_pid);
      if (pos != clock_.end()) {
        clock_.erase(pos);
        pid = dirty_pid;
        candidate = dirty_page;
        lsn_before = dirty_lsn;
      }
    }
  }
  if (pid == kInvalidPageId) return false;

  // Phase 2 — under the shard mutex: retract the lock-free mapping, fence,
  // then check pins/identity. A concurrent lock-free fix either pinned
  // before our check (we abort and republish) or will revalidate after our
  // retract and fall to the slow path, which needs this mutex. Every
  // mutation path pins first, so a pin_count == 0 frame cannot change
  // while the snapshot copy runs: the image written back is always a
  // consistent state as of `lsn_before` (writing from the live buffer
  // without this protocol could persist a torn, mid-mutation image under
  // a stale page LSN — undetectable by recovery's redo gate). A clean
  // victim is detached right here — no barrier, no I/O. A dirty victim is
  // sanitized (no tagged PageId ever reaches disk), snapshotted, and
  // tentatively marked clean; any racing mutation re-dirties it and
  // phase 3 then aborts the steal, leaving the change resident.
  Shard& shard = ShardFor(pid);
  std::vector<char> image;
  PageSlotHeader header;
  bool snapshot_ok = false;
  bool present_at_snapshot = false;
  bool detached = false;
  bool dirty_now = false;
  bool volatile_index = false;
  Lsn rec_lsn_before = 0;
  {
    TrackedMutexUnprofiledLock sg(shard.mu);
    auto it = shard.pages.find(pid);
    present_at_snapshot = it != shard.pages.end() && it->second == candidate;
    if (present_at_snapshot) {
      DirRetract(pid);
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }
    snapshot_ok = present_at_snapshot && candidate->pin_count() == 0 &&
                  candidate->page_lsn() == lsn_before &&
                  candidate->swizzle_parent() == kInvalidPageId &&
                  !candidate->sticky();
    if (snapshot_ok) {
      dirty_now = candidate->dirty();
      volatile_index = candidate->volatile_index();
      if (!dirty_now) {
        shard.pages.erase(it);
        detached = true;
      } else {
        rec_lsn_before = candidate->rec_lsn();
        UnswizzleForWriteBack(candidate);
        image.assign(candidate->data(), candidate->data() + kPageSize);
        header.page_class =
            static_cast<std::uint8_t>(candidate->page_class());
        header.owner_tag = candidate->owner_tag();
        header.table_tag = candidate->table_tag();
        header.page_lsn = lsn_before;
        if (volatile_index) header.flags |= kSlotFlagVolatileIndex;
        candidate->MarkClean();  // tentative; racing mutations re-dirty
      }
    } else if (present_at_snapshot) {
      DirPublish(pid, candidate);  // abort: restore the fast path
    }
  }
  if (!snapshot_ok) {
    if (present_at_snapshot) {
      // Raced a pin or an update since selection: the frame stays; put it
      // back on the clock (outside the shard mutex — EvictOne nests the
      // shard mutex inside clock_mu_, never the reverse).
      MutexLock g(clock_mu_);
      clock_.push_back(pid);
    }
    return false;
  }

  Status write_status = Status::OK();
  if (!detached) {
    // WAL rule: the log must be durable up to the snapshot's LSN before
    // the snapshot overwrites the disk copy. No locks held across I/O;
    // the directory stays retracted, so lock-free fixes fall to the slow
    // path (where the frame is still mapped) until phase 3 resolves.
    const std::uint64_t steal_start = NowNanos();
    if (config_.wal_barrier) config_.wal_barrier(lsn_before);
    write_status = config_.disk->WritePage(pid, header, image.data());
    if (write_status.ok()) {
      disk_writes_.fetch_add(1, std::memory_order_relaxed);
      eviction_writebacks_metric_->Increment();
      writeback_stall_us_metric_->Record((NowNanos() - steal_start) / 1000);
      FlightRecorder::Emit(TraceEventType::kEvictWriteback, steal_start,
                           NowNanos() - steal_start, pid, 0);
    }

    // Phase 3 — detach, re-validating under the shard mutex: a pin taken,
    // any re-dirtying mutation (logged or compensation), a fresh swizzle,
    // or a write error aborts the steal and the frame stays resident. A
    // frame freed during the I/O (FreePage race) must not be touched.
    bool still_present = false;
    {
      TrackedMutexUnprofiledLock sg(shard.mu);
      auto it = shard.pages.find(pid);
      still_present = it != shard.pages.end() && it->second == candidate;
      if (still_present && write_status.ok() &&
          candidate->pin_count() == 0 &&
          candidate->page_lsn() == lsn_before && !candidate->dirty() &&
          candidate->swizzle_parent() == kInvalidPageId) {
        shard.pages.erase(it);
        detached = true;
      } else if (still_present) {
        if (!write_status.ok()) {
          // The tentative clean must not survive a failed write-back: the
          // ops since the original rec_lsn are still unflushed, so put
          // that rec_lsn back (even over one a racing mutation CAS'd in —
          // the racing op's interval starts later than the unflushed one).
          candidate->RestoreDirty(rec_lsn_before);
        }
        candidate->SetRef();
        DirPublish(pid, candidate);
      }
    }
    if (!detached) {
      if (still_present) {
        MutexLock g(clock_mu_);
        clock_.push_back(pid);
      }
      return write_status.ok() && !still_present;  // freed = progress
    }
  }
  num_pages_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  evictions_metric_->Increment();
  NotifyEvicted(pid);
  // Recycle the frame. Stale lock-free readers may still transiently pin
  // it; they revalidate against the retracted directory before touching
  // contents, so Reinit on the next TakeFrame is safe.
  ReturnFrame(candidate);
  return true;
}

Status BufferPool::WriteBackNoClean(Page* page) {
  const std::uint64_t write_start = NowNanos();
  // WAL rule: every log record describing this page must be durable
  // before the page image overwrites the disk copy (no-steal of unlogged
  // state). page_lsn covers the newest update.
  if (config_.wal_barrier) config_.wal_barrier(page->page_lsn());
  PageSlotHeader header;
  header.page_class = static_cast<std::uint8_t>(page->page_class());
  header.owner_tag = page->owner_tag();
  header.table_tag = page->table_tag();
  header.page_lsn = page->page_lsn();
  if (page->volatile_index()) header.flags |= kSlotFlagVolatileIndex;
  PLP_RETURN_IF_ERROR(
      config_.disk->WritePage(page->id(), header, page->data()));
  disk_writes_.fetch_add(1, std::memory_order_relaxed);
  flush_writebacks_metric_->Increment();
  writeback_stall_us_metric_->Record((NowNanos() - write_start) / 1000);
  return Status::OK();
}

Status BufferPool::WriteBack(Page* page) {
  PLP_RETURN_IF_ERROR(WriteBackNoClean(page));
  page->MarkClean();
  return Status::OK();
}

Status BufferPool::FlushPage(PageId id, LatchPolicy policy) {
  TraceSiteScope trace_site(TraceSite::kPageCleaner);
  if (config_.disk == nullptr) {
    // Memory-resident: cleaning is just clearing the dirty bit.
    Page* page = FixUnlocked(id);
    if (page != nullptr) {
      LatchGuard g(&page->latch(), LatchMode::kShared, policy);
      page->MarkClean();
    }
    return Status::OK();
  }
  PageRef ref = AcquirePage(id, /*tracked=*/false);
  if (!ref) return Status::OK();  // already evicted (hence clean)
  if (!ref->dirty()) return Status::OK();
  if (!Evictable(ref->page_class())) {
    // Catalog pages are rebuilt at restart; persisting them would only
    // grow data.db with slots no reopen ever reads.
    LatchGuard g(&ref->latch(), LatchMode::kShared, policy);
    ref->MarkClean();
    return Status::OK();
  }
  // Index pages take the latch exclusively: the in-place unswizzle that
  // sanitizes child refs before the copy must not race shared-latched
  // descents resolving those refs.
  const LatchMode mode =
      swizzling_on_ && ref->page_class() == PageClass::kIndex
          ? LatchMode::kExclusive
          : LatchMode::kShared;
  LatchGuard g(&ref->latch(), mode, policy);
  UnswizzleForWriteBack(ref.get());
  return WriteBack(ref.get());
}

Status BufferPool::FlushAllDirty(LatchPolicy policy) {
  Status result = Status::OK();
  for (auto& shard : shards_) {
    std::vector<PageId> dirty;
    {
      TrackedMutexUnprofiledLock g(shard->mu);
      for (auto& [id, page] : shard->pages) {
        if (page->dirty()) dirty.push_back(id);
      }
    }
    for (PageId id : dirty) {
      Status st = FlushPage(id, policy);
      if (!st.ok() && result.ok()) result = st;
    }
  }
  return result;
}

std::vector<PageId> BufferPool::DirtyPages(std::size_t limit) {
  std::vector<PageId> out;
  for (auto& shard : shards_) {
    TrackedMutexUnprofiledLock g(shard->mu);
    for (auto& [id, page] : shard->pages) {
      if (page->dirty()) {
        out.push_back(id);
        if (out.size() >= limit) return out;
      }
    }
  }
  return out;
}

std::vector<std::pair<PageId, Lsn>> BufferPool::DirtyPageTable() {
  std::vector<std::pair<PageId, Lsn>> out;
  for (auto& shard : shards_) {
    TrackedMutexUnprofiledLock g(shard->mu);
    for (auto& [id, page] : shard->pages) {
      if (page->dirty() && Evictable(page->page_class())) {
        out.emplace_back(id, page->rec_lsn());
      }
    }
  }
  return out;
}

void BufferPool::RegisterEvictionListener(
    void* token, std::function<void(PageId)> listener) {
  SpinlockGuard g(listeners_mu_);
  listeners_.emplace_back(token, std::move(listener));
}

void BufferPool::UnregisterEvictionListener(void* token) {
  SpinlockGuard g(listeners_mu_);
  for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
    if (it->first == token) {
      listeners_.erase(it);
      return;
    }
  }
}

void BufferPool::NotifyEvicted(PageId id) {
  SpinlockGuard g(listeners_mu_);
  for (auto& [token, fn] : listeners_) fn(id);
}

}  // namespace plp

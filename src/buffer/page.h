// A buffer-pool page frame: 8KB of data plus an instrumented latch.
#ifndef PLP_BUFFER_PAGE_H_
#define PLP_BUFFER_PAGE_H_

#include <atomic>
#include <cstring>

#include "src/common/types.h"
#include "src/sync/latch.h"

namespace plp {

/// A page frame. The latch is tagged with the page class so every
/// acquisition lands in the right bucket of the latch breakdown (Figure 2).
///
/// Frames are type-stable: the pool constructs each Page in a slot of its
/// mmap'd frame arena, and the object lives there until the pool is
/// destroyed. Eviction detaches a frame from the mapping table and
/// recycles it through Reinit() for the next page-in. A lock-free reader
/// that loaded a stale directory entry may therefore still dereference the
/// frame safely; its pin/revalidate protocol then detects the recycling.
class Page {
 public:
  Page(PageId id, PageClass page_class, std::uint32_t frame_index)
      : id_(id),
        page_class_(page_class),
        frame_index_(frame_index),
        latch_(page_class) {
    std::memset(data_, 0, kPageSize);
  }

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  /// Repurposes a recycled frame for a new page identity. Caller guarantees
  /// the frame is detached from the mapping table (no new readers) and
  /// unpinned. pin_count_ and frame_index_ survive: transient Pin/Unpin
  /// pairs from stale lock-free readers net to zero, and the frame keeps
  /// its arena slot forever.
  void Reinit(PageId id, PageClass page_class) {
    id_.store(id, std::memory_order_relaxed);
    page_class_.store(page_class, std::memory_order_relaxed);
    latch_.set_page_class(page_class);
    dirty_.store(false, std::memory_order_relaxed);
    page_lsn_.store(0, std::memory_order_relaxed);
    rec_lsn_.store(0, std::memory_order_relaxed);
    ref_.store(false, std::memory_order_relaxed);
    owner_tag_.store(UINT32_MAX, std::memory_order_relaxed);
    table_tag_.store(UINT32_MAX, std::memory_order_relaxed);
    volatile_index_.store(false, std::memory_order_relaxed);
    swizzle_parent_.store(kInvalidPageId, std::memory_order_relaxed);
    sticky_.store(false, std::memory_order_relaxed);
    std::memset(data_, 0, kPageSize);
  }

  PageId id() const { return id_.load(std::memory_order_relaxed); }
  PageClass page_class() const {
    return page_class_.load(std::memory_order_relaxed);
  }
  /// Fixes up the class of a frame recycled before the on-disk slot header
  /// was available (page-in path; the frame is not yet published).
  void SetClass(PageClass page_class) {
    page_class_.store(page_class, std::memory_order_relaxed);
    latch_.set_page_class(page_class);
  }

  /// Position of this frame in the pool's frame arena (its slot); fixed at
  /// construction and stable across recycling, so every frame can be the
  /// target of a swizzled reference.
  std::uint32_t frame_index() const { return frame_index_; }

  /// PageId of the parent index page currently holding a swizzled reference
  /// to this frame (kInvalidPageId = not swizzled). Maintained by the
  /// pool's swizzle install/unswizzle protocol; eviction refuses to steal a
  /// frame whose parent still points at it by frame index.
  PageId swizzle_parent() const {
    return swizzle_parent_.load(std::memory_order_acquire);
  }
  bool TrySetSwizzleParent(PageId parent) {
    PageId expected = kInvalidPageId;
    if (swizzle_parent_.compare_exchange_strong(expected, parent,
                                                std::memory_order_acq_rel)) {
      return true;
    }
    return expected == parent;  // already swizzled under the same parent
  }
  void ClearSwizzleParentIf(PageId parent) {
    PageId expected = parent;
    swizzle_parent_.compare_exchange_strong(expected, kInvalidPageId,
                                            std::memory_order_acq_rel);
  }
  void ClearSwizzleParent() {
    swizzle_parent_.store(kInvalidPageId, std::memory_order_release);
  }

  /// Sticky frames (index roots) are never chosen as steal victims; the
  /// descent fast path caches them without pinning.
  bool sticky() const { return sticky_.load(std::memory_order_acquire); }
  void set_sticky(bool s) { sticky_.store(s, std::memory_order_release); }

  char* data() { return data_; }
  const char* data() const { return data_; }

  Latch& latch() { return latch_; }

  bool dirty() const { return dirty_.load(std::memory_order_relaxed); }
  void MarkDirty() { dirty_.store(true, std::memory_order_relaxed); }
  void MarkClean() {
    dirty_.store(false, std::memory_order_relaxed);
    rec_lsn_.store(0, std::memory_order_relaxed);
  }

  /// Page LSN of the last update (recovery uses it for idempotent redo).
  Lsn page_lsn() const { return page_lsn_.load(std::memory_order_relaxed); }
  void set_page_lsn(Lsn lsn) {
    page_lsn_.store(lsn, std::memory_order_relaxed);
  }

  /// Recovery LSN: the first update since the page was last clean (the
  /// dirty-page-table entry of a fuzzy checkpoint). 0 while clean.
  Lsn rec_lsn() const { return rec_lsn_.load(std::memory_order_relaxed); }

  /// Re-dirties the frame with a saved recovery LSN after a failed
  /// write-back undoes a tentative MarkClean (eviction). A direct store:
  /// it must also overwrite a rec_lsn that a racing StampUpdate CAS'd in
  /// while the frame was tentatively clean, or the dirty interval that
  /// the failed write left unflushed would no longer be covered.
  void RestoreDirty(Lsn saved_rec_lsn) {
    rec_lsn_.store(saved_rec_lsn, std::memory_order_relaxed);
    dirty_.store(true, std::memory_order_relaxed);
  }

  /// Records a logged update at `lsn`: advances page_lsn, pins rec_lsn to
  /// the first update of the current dirty interval.
  void StampUpdate(Lsn lsn) {
    page_lsn_.store(lsn, std::memory_order_relaxed);
    Lsn expected = 0;
    rec_lsn_.compare_exchange_strong(expected, lsn,
                                     std::memory_order_relaxed);
    dirty_.store(true, std::memory_order_relaxed);
  }

  /// Pin accounting: a pinned frame is never evicted. Fix paths pin when
  /// the pool runs with a frame budget; PageRef releases.
  void Pin() { pin_count_.fetch_add(1, std::memory_order_acq_rel); }
  void Unpin() { pin_count_.fetch_sub(1, std::memory_order_acq_rel); }
  int pin_count() const { return pin_count_.load(std::memory_order_acquire); }

  /// Clock-sweep reference bit (second chance).
  bool TestAndClearRef() { return ref_.exchange(false, std::memory_order_relaxed); }
  void SetRef() { ref_.store(true, std::memory_order_relaxed); }

  /// Which heap file (table) allocated this page; persisted in the on-disk
  /// slot header so page lists can be rebuilt at restart. UINT32_MAX for
  /// index/catalog pages.
  std::uint32_t table_tag() const {
    return table_tag_.load(std::memory_order_relaxed);
  }
  void set_table_tag(std::uint32_t tag) {
    table_tag_.store(tag, std::memory_order_relaxed);
  }

  /// Frame-level owner tag: which global partition uid owns this page
  /// (UINT32_MAX = unowned). The page cleaner uses it to delegate cleaning
  /// to partition workers (Appendix A.4).
  std::uint32_t owner_tag() const {
    return owner_tag_.load(std::memory_order_relaxed);
  }
  void set_owner_tag(std::uint32_t tag) {
    owner_tag_.store(tag, std::memory_order_relaxed);
  }

  /// Index page of an unlogged (volatile secondary) tree: rebuilt from
  /// scratch on reopen. Write-backs flag its data-file slot volatile so
  /// eviction/drop and the next open reclaim the slot into the free list
  /// (buffer_pool.leaked_index_slots stays 0). Set at allocation; the flag
  /// itself is persisted in the slot header, not the page image.
  bool volatile_index() const {
    return volatile_index_.load(std::memory_order_relaxed);
  }
  void set_volatile_index(bool v) {
    volatile_index_.store(v, std::memory_order_relaxed);
  }

 private:
  std::atomic<PageId> id_;
  std::atomic<PageClass> page_class_;
  const std::uint32_t frame_index_;
  Latch latch_;
  std::atomic<bool> dirty_{false};
  std::atomic<Lsn> page_lsn_{0};
  std::atomic<Lsn> rec_lsn_{0};
  std::atomic<int> pin_count_{0};
  std::atomic<bool> ref_{false};
  std::atomic<std::uint32_t> owner_tag_{UINT32_MAX};
  std::atomic<std::uint32_t> table_tag_{UINT32_MAX};
  std::atomic<bool> volatile_index_{false};
  std::atomic<PageId> swizzle_parent_{kInvalidPageId};
  std::atomic<bool> sticky_{false};
  alignas(64) char data_[kPageSize];
};

/// RAII pin over a frame the caller already holds a Page* to: pins on
/// construction, unpins on destruction. For paths that pin transiently
/// around a revalidate/latch window (eviction's pin/fence/revalidate,
/// unswizzle repair) rather than handing a reference out — those use
/// PageRef. Debug builds trap unpaired pins at pool teardown
/// (~BufferPool), so every manual Pin() should live inside one of the
/// two guards.
class PinGuard {
 public:
  explicit PinGuard(Page* page) : page_(page) { page_->Pin(); }
  ~PinGuard() {
    if (page_ != nullptr) page_->Unpin();
  }

  PinGuard(PinGuard&& other) noexcept : page_(other.page_) {
    other.page_ = nullptr;
  }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;
  PinGuard& operator=(PinGuard&&) = delete;

 private:
  Page* page_;
};

}  // namespace plp

#endif  // PLP_BUFFER_PAGE_H_

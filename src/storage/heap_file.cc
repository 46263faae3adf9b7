#include "src/storage/heap_file.h"

#include <algorithm>
#include <cassert>

#include "src/sync/cs_profiler.h"

namespace plp {

HeapFile::HeapFile(BufferPool* pool, HeapMode mode, std::uint32_t file_id)
    : pool_(pool),
      mode_(mode),
      latch_policy_(mode == HeapMode::kShared ? LatchPolicy::kLatched
                                              : LatchPolicy::kNone),
      file_id_(file_id) {}

PageRef HeapFile::AllocatePage(std::uint32_t owner) {
  PageRef page = pool_->AllocatePage(PageClass::kHeap, file_id_);
  SlottedPage::Init(page->data());
  SlottedPage(page->data()).set_owner(owner);
  if (mode_ != HeapMode::kShared) page->set_owner_tag(owner);
  {
    TrackedMutexLock g(meta_mu_);
    pages_.push_back(page->id());
    if (mode_ != HeapMode::kShared) {
      auto& op = owners_[owner];
      if (!op) op = std::make_unique<OwnerPages>();
      op->pages.push_back(page->id());
    }
  }
  return page;
}

PageRef HeapFile::FixForOp(PageId id) {
  return pool_->AcquirePage(id, /*tracked=*/latch_policy_ ==
                                    LatchPolicy::kLatched);
}

void HeapFile::AdoptPage(PageId id, std::uint32_t owner) {
  TrackedMutexLock g(meta_mu_);
  if (std::find(pages_.begin(), pages_.end(), id) == pages_.end()) {
    pages_.push_back(id);
    if (mode_ != HeapMode::kShared) {
      auto& op = owners_[owner];
      if (!op) op = std::make_unique<OwnerPages>();
      op->pages.push_back(id);
    }
  }
}

void HeapFile::PrimeFreeSpace() {
  if (mode_ != HeapMode::kShared) return;
  for (PageId pid : AllPages()) {
    PageRef page = FixForOp(pid);
    if (!page) continue;
    fsm_.Update(pid, SlottedPage(page->data()).TotalFreeSpace());
  }
}

HeapFile::OwnerPages* HeapFile::GetOwnerPages(std::uint32_t owner) {
  TrackedMutexLock g(meta_mu_);
  auto& op = owners_[owner];
  if (!op) op = std::make_unique<OwnerPages>();
  return op.get();
}

Status HeapFile::Insert(Slice record, Rid* rid, const MutationHook& logged) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  assert(mode_ == HeapMode::kShared);
  for (int attempt = 0; attempt < 8; ++attempt) {
    PageId pid = fsm_.FindPageWith(record.size() + SlottedPage::kSlotSize);
    PageRef page = pid == kInvalidPageId ? PageRef() : FixForOp(pid);
    if (!page) {
      page = AllocatePage(/*owner=*/0);
    }
    LatchGuard g(&page->latch(), LatchMode::kExclusive, latch_policy_);
    SlottedPage sp(page->data());
    SlotId slot;
    Status st = sp.Insert(record, &slot);
    if (st.IsNoSpace()) {
      fsm_.Update(page->id(), 0);
      continue;  // stale estimate; try another page
    }
    PLP_RETURN_IF_ERROR(st);
    page->MarkDirty();
    if (logged) logged(page.get(), slot);
    fsm_.Update(page->id(), sp.TotalFreeSpace());
    *rid = Rid{page->id(), slot};
    return Status::OK();
  }
  return Status::NoSpace("heap insert failed after retries");
}

Status HeapFile::InsertOwned(std::uint32_t owner, Slice record, Rid* rid,
                             const MutationHook& logged) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  assert(mode_ != HeapMode::kShared);
  OwnerPages* op = GetOwnerPages(owner);
  // Try the most recently allocated page for this owner first.
  if (!op->pages.empty()) {
    PageRef page = FixForOp(op->pages.back());
    if (page) {
      SlottedPage sp(page->data());
      SlotId slot;
      Status st = sp.Insert(record, &slot);
      if (st.ok()) {
        page->MarkDirty();
        if (logged) logged(page.get(), slot);
        *rid = Rid{page->id(), slot};
        return st;
      }
      if (!st.IsNoSpace()) return st;
    }
  }
  PageRef page = AllocatePage(owner);
  SlottedPage sp(page->data());
  SlotId slot;
  PLP_RETURN_IF_ERROR(sp.Insert(record, &slot));
  page->MarkDirty();
  if (logged) logged(page.get(), slot);
  *rid = Rid{page->id(), slot};
  return Status::OK();
}

Status HeapFile::Get(Rid rid, std::string* out) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  PageRef page = FixForOp(rid.page_id);
  if (!page) return Status::NotFound("no such page");
  LatchGuard g(&page->latch(), LatchMode::kShared, latch_policy_);
  Slice rec;
  PLP_RETURN_IF_ERROR(SlottedPage(page->data()).Get(rid.slot, &rec));
  out->assign(rec.data(), rec.size());
  return Status::OK();
}

Status HeapFile::Update(Rid rid, Slice record, const MutationHook& logged) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  PageRef page = FixForOp(rid.page_id);
  if (!page) return Status::NotFound("no such page");
  LatchGuard g(&page->latch(), LatchMode::kExclusive, latch_policy_);
  PLP_RETURN_IF_ERROR(SlottedPage(page->data()).Update(rid.slot, record));
  page->MarkDirty();
  if (logged) logged(page.get(), rid.slot);
  return Status::OK();
}

Status HeapFile::Delete(Rid rid, const MutationHook& logged) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  PageRef page = FixForOp(rid.page_id);
  if (!page) return Status::NotFound("no such page");
  LatchGuard g(&page->latch(), LatchMode::kExclusive, latch_policy_);
  SlottedPage sp(page->data());
  PLP_RETURN_IF_ERROR(sp.Delete(rid.slot));
  page->MarkDirty();
  if (logged) logged(page.get(), rid.slot);
  if (mode_ == HeapMode::kShared) {
    fsm_.Update(page->id(), sp.TotalFreeSpace());
  }
  return Status::OK();
}

void HeapFile::Scan(const std::function<void(Rid, Slice)>& fn) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  for (PageId pid : AllPages()) {
    PageRef page = pool_->AcquirePage(pid, /*tracked=*/true);
    if (!page) continue;
    LatchGuard g(&page->latch(), LatchMode::kShared, latch_policy_);
    SlottedPage(page->data()).ForEach([&](SlotId s, Slice rec) {
      fn(Rid{pid, s}, rec);
    });
  }
}

void HeapFile::ScanOwned(std::uint32_t owner,
                         const std::function<void(Rid, Slice)>& fn) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  for (PageId pid : OwnedPages(owner)) {
    PageRef page = pool_->AcquirePage(pid, /*tracked=*/false);
    if (!page) continue;
    SlottedPage(page->data()).ForEach([&](SlotId s, Slice rec) {
      fn(Rid{pid, s}, rec);
    });
  }
}

Status HeapFile::RestoreAt(Rid rid, std::uint32_t owner, Slice record,
                           Rid* out_rid, const MutationHook& logged) {
  TraceSiteScope trace_site(TraceSite::kHeapOp);
  {
    PageRef page = FixForOp(rid.page_id);
    if (page) {
      LatchGuard g(&page->latch(), LatchMode::kExclusive, latch_policy_);
      SlottedPage sp(page->data());
      Slice existing;
      if (sp.Get(rid.slot, &existing).IsNotFound() &&
          sp.PutAt(rid.slot, record).ok()) {
        page->MarkDirty();
        if (logged) logged(page.get(), rid.slot);
        if (mode_ == HeapMode::kShared) {
          fsm_.Update(page->id(), sp.TotalFreeSpace());
        }
        *out_rid = rid;
        return Status::OK();
      }
    }
  }
  // Slot reused (or page gone): place like a fresh insert.
  if (mode_ == HeapMode::kShared) return Insert(record, out_rid, logged);
  return InsertOwned(owner, record, out_rid, logged);
}

Status HeapFile::Move(Rid from, std::uint32_t new_owner, Rid* new_rid) {
  std::string record;
  PLP_RETURN_IF_ERROR(Get(from, &record));
  PLP_RETURN_IF_ERROR(InsertOwned(new_owner, record, new_rid));
  return Delete(from);
}

std::vector<PageId> HeapFile::OwnedPages(std::uint32_t owner) {
  TrackedMutexLock g(meta_mu_);
  std::vector<PageId> out;
  auto it = owners_.find(owner);
  if (it != owners_.end()) out = it->second->pages;
  return out;
}

void HeapFile::RetagPage(PageId id, std::uint32_t new_owner) {
  {
    TrackedMutexLock g(meta_mu_);
    for (auto& [owner, op] : owners_) {
      if (owner == new_owner) continue;
      auto it = std::find(op->pages.begin(), op->pages.end(), id);
      if (it != op->pages.end()) op->pages.erase(it);
    }
    auto& dst = owners_[new_owner];
    if (!dst) dst = std::make_unique<OwnerPages>();
    if (std::find(dst->pages.begin(), dst->pages.end(), id) ==
        dst->pages.end()) {
      dst->pages.push_back(id);
    }
  }
  PageRef page = pool_->AcquirePage(id, /*tracked=*/false);
  if (page) {
    SlottedPage(page->data()).set_owner(new_owner);
    page->set_owner_tag(new_owner);
    page->MarkDirty();
  }
}

void HeapFile::RetagOwner(std::uint32_t old_owner, std::uint32_t new_owner) {
  TrackedMutexLock g(meta_mu_);
  auto it = owners_.find(old_owner);
  if (it != owners_.end()) {
    auto& dst = owners_[new_owner];
    if (!dst) dst = std::make_unique<OwnerPages>();
    for (PageId pid : it->second->pages) {
      PageRef page = pool_->AcquirePage(pid, /*tracked=*/false);
      if (page) {
        SlottedPage(page->data()).set_owner(new_owner);
        page->set_owner_tag(new_owner);
        page->MarkDirty();
      }
      dst->pages.push_back(pid);
    }
    owners_.erase(it);
  }
}

std::size_t HeapFile::num_pages() const {
  return const_cast<HeapFile*>(this)->AllPages().size();
}

std::vector<PageId> HeapFile::AllPages() {
  TrackedMutexLock g(meta_mu_);
  return pages_;
}

}  // namespace plp

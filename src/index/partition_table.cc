#include "src/index/partition_table.h"

#include <cassert>
#include <cstring>

#include "src/common/key_encoding.h"
#include "src/storage/slotted_page.h"
#include "src/sync/cs_profiler.h"

namespace plp {

namespace {
// Routing-page record: [u32 root][key bytes]. The page `owner` field links
// to the next routing page in the chain (kInvalidPageId terminates).
std::string EncodeRoutingEntry(const PartitionTable::Entry& e) {
  std::string rec(reinterpret_cast<const char*>(&e.root), sizeof(PageId));
  rec += e.start_key;
  return rec;
}

PartitionTable::Entry DecodeRoutingEntry(Slice rec) {
  PartitionTable::Entry e;
  std::memcpy(&e.root, rec.data(), sizeof(PageId));
  e.start_key.assign(rec.data() + sizeof(PageId),
                     rec.size() - sizeof(PageId));
  return e;
}
}  // namespace

PartitionTable::PartitionTable(BufferPool* pool) : pool_(pool) {
  Page* page = pool_->NewPage(PageClass::kCatalog);
  SlottedPage::Init(page->data());
  SlottedPage(page->data()).set_owner(kInvalidPageId);
  routing_page_ = page->id();
}

PartitionId PartitionTable::PartitionFor(Slice key) const {
  ReaderMutexLock lk(mu_);
  assert(!entries_.empty());
  // Last entry whose start_key <= key.
  int lo = 0, hi = static_cast<int>(entries_.size());
  while (lo + 1 < hi) {
    const int mid = (lo + hi) / 2;
    if (Slice(entries_[static_cast<std::size_t>(mid)].start_key) <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<PartitionId>(lo);
}

Status PartitionTable::SetEntries(std::vector<Entry> entries) {
  if (entries.empty()) {
    return Status::InvalidArgument("at least one partition required");
  }
  if (!entries.front().start_key.empty()) {
    return Status::InvalidArgument("first partition must start at -inf");
  }
  {
    WriterMutexLock lk(mu_);
    entries_ = std::move(entries);
  }
  return Persist();
}

std::vector<PartitionTable::Entry> PartitionTable::entries() const {
  ReaderMutexLock lk(mu_);
  return entries_;
}

std::size_t PartitionTable::NumPartitions() const {
  ReaderMutexLock lk(mu_);
  return entries_.size();
}

Status PartitionTable::Persist() {
  TraceSiteScope trace_site(TraceSite::kPartitionTable);
  ReaderMutexLock lk(mu_);
  PageId pid = routing_page_;
  std::size_t i = 0;
  while (i < entries_.size()) {
    Page* page = pool_->Fix(pid);
    if (page == nullptr) return Status::Internal("routing page missing");
    LatchGuard g(&page->latch(), LatchMode::kExclusive,
                 LatchPolicy::kLatched);
    SlottedPage::Init(page->data());
    SlottedPage sp(page->data());
    sp.set_owner(kInvalidPageId);
    while (i < entries_.size()) {
      const std::string rec = EncodeRoutingEntry(entries_[i]);
      SlotId slot;
      Status st = sp.Insert(rec, &slot);
      if (st.IsNoSpace()) break;  // chain another routing page
      PLP_RETURN_IF_ERROR(st);
      ++i;
    }
    page->MarkDirty();
    if (i < entries_.size()) {
      Page* next = pool_->NewPage(PageClass::kCatalog);
      SlottedPage::Init(next->data());
      SlottedPage(next->data()).set_owner(kInvalidPageId);
      sp.set_owner(next->id());
      pid = next->id();
    }
  }
  return Status::OK();
}

Status PartitionTable::LoadFromPages() {
  TraceSiteScope trace_site(TraceSite::kPartitionTable);
  std::vector<Entry> loaded;
  PageId pid = routing_page_;
  while (pid != kInvalidPageId) {
    Page* page = pool_->Fix(pid);
    if (page == nullptr) return Status::Corruption("routing chain broken");
    LatchGuard g(&page->latch(), LatchMode::kShared, LatchPolicy::kLatched);
    SlottedPage sp(page->data());
    sp.ForEach([&](SlotId, Slice rec) {
      loaded.push_back(DecodeRoutingEntry(rec));
    });
    pid = sp.owner();
  }
  WriterMutexLock lk(mu_);
  entries_ = std::move(loaded);
  return Status::OK();
}

}  // namespace plp

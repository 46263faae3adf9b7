#include "src/index/btree.h"

#include <cassert>
#include <cstring>

#include "src/index/persistent/index_log.h"
#include "src/sync/cs_profiler.h"

namespace plp {

namespace {
std::string PidValue(PageId pid) {
  return std::string(reinterpret_cast<const char*>(&pid), sizeof(PageId));
}
}  // namespace

BTree::BTree(BufferPool* pool, LatchPolicy policy, IndexLogger* logger)
    : pool_(pool), policy_(policy), logger_(logger) {
  PageRef root = NewNodePage(/*level=*/0);
  root_ = root->id();
  // The empty root must be recoverable before any mutation references it.
  if (logger_ != nullptr) logger_->Smo({root.get()});
}

BTree::BTree(BufferPool* pool, LatchPolicy policy, PageId root,
             IndexLogger* logger)
    : pool_(pool), policy_(policy), root_(root), logger_(logger) {}

PageRef BTree::FixPage(PageId id) {
  // Latched mode charges the buffer-pool critical section; latch-free
  // partitions own their pages and skip it. In durable (evicting) mode the
  // returned ref pins the frame, which both keeps the pointer alive across
  // the operation and closes the modify->log window: an unpinned frame
  // could be stolen between the byte change and the WAL append.
  return pool_->AcquirePage(id, /*tracked=*/policy_ == LatchPolicy::kLatched);
}

PageRef BTree::NewNodePage(std::uint16_t level) {
  PageRef page = pool_->AllocatePage(PageClass::kIndex, UINT32_MAX,
                                     /*volatile_index=*/logger_ == nullptr);
  BTreeNode::Init(page->data(), level);
  page->set_owner_tag(owner_tag_);
  return page;
}

PageRef BTree::FixRoot() {
  Page* cached = root_frame_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->id() == root_) {
    const bool pin = pool_->evicting();
    if (pin) cached->Pin();
    // Sticky frames are never stolen, so the cached pointer stays valid;
    // the only way the mapping moves is a root_ change (slice/meld),
    // which quiesces the tree and resets this cache first.
    return PageRef(cached, pin);
  }
  PageRef ref = FixPage(root_);
  if (ref && pool_->swizzling_enabled()) {
    ref->set_sticky(true);
    root_frame_.store(ref.get(), std::memory_order_release);
  }
  return ref;
}

void BTree::ResetRootCache() {
  Page* old = root_frame_.exchange(nullptr, std::memory_order_acq_rel);
  if (old != nullptr) old->set_sticky(false);
}

PageRef BTree::FixChildFor(Page* parent, Slice key) {
  BTreeNode node(parent->data());
  if (!pool_->swizzling_enabled() || policy_ != LatchPolicy::kLatched) {
    return FixPage(Plain(node.ChildFor(key)));
  }
  int slot = 0;
  const PageId ref = node.ChildRefFor(key, &slot);
  if (IsSwizzledRef(ref)) {
    // Hot path: the parent latch we hold excludes the unswizzle protocol
    // (which takes it exclusively), so the frame behind the reference is
    // resident and current — resolve it with zero page-table lookups.
    Page* child = pool_->SwizzledFrame(ref);
    pool_->NoteSwizzleHit();
    child->SetRef();
    const bool pin = pool_->evicting();
    if (pin) child->Pin();
    return PageRef(child, pin);
  }
  PageRef child = FixPage(ref);
  if (child && child->TrySetSwizzleParent(parent->id())) {
    const PageId tagged = SwizzleRef(child->frame_index());
    if (node.CasChildRef(slot, ref, tagged)) {
      // Never MarkDirty: the tagged value is a runtime-only encoding,
      // sanitized out of every image that leaves the pool.
      pool_->NoteSwizzleInstalled();
    } else if (node.ChildRefAt(slot) != tagged) {
      // Lost the CAS to something other than a concurrent install of the
      // same reference — roll the marker back (only if it is still ours).
      child->ClearSwizzleParentIf(parent->id());
    }
  }
  return child;
}

void BTree::SanitizeScope(SmoScope* scope) {
  if (!pool_->swizzling_enabled()) return;
  for (Page* p : scope->touched) BTreeNode::UnswizzleAll(p, pool_);
}

void BTree::LogSmoScope(SmoScope* scope) {
  if (logger_ != nullptr && !scope->touched.empty()) {
    SanitizeScope(scope);
    logger_->Smo(scope->touched);
  }
}

PageId BTree::LeafFor(Slice key) {
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    cur = FixPage(Plain(node.ChildFor(key)));
    node = BTreeNode(cur->data());
  }
  return cur->id();
}

void BTree::ApplyLeafMovedHook(Page* leaf, int from, PageId new_leaf) {
  if (!leaf_moved_hook_) return;
  BTreeNode node(leaf->data());
  for (int i = from; i < node.count(); ++i) {
    const std::string key = node.KeyAt(i).ToString();
    const std::string old_value = node.ValueAt(i).ToString();
    // 1. Copy the heap record to a page owned by the new leaf (the hook
    //    logs a system insert in durable mode).
    const std::string new_value = leaf_moved_hook_(key, old_value, new_leaf);
    if (new_value.empty()) continue;
    // 2. Re-point the index entry where it currently lives, and log the
    //    re-point before the old location can be released: every WAL
    //    prefix keeps the record reachable (copy-only -> old RID valid;
    //    re-point -> new RID valid; release last).
    Status st = node.SetValueAt(i, new_value);
    assert(st.ok());  // RID values are fixed-size: replacement fits
    (void)st;
    if (logger_ != nullptr) {
      logger_->LeafUpdate(kInvalidTxnId, leaf, key, new_value, old_value);
    }
    // 3. Release the old heap location (logged system delete in durable
    //    mode).
    if (leaf_moved_release_hook_) leaf_moved_release_hook_(old_value);
  }
  leaf->MarkDirty();
}

void BTree::RetagPages(std::uint32_t owner) {
  owner_tag_ = owner;
  struct Walker {
    BTree* tree;
    std::uint32_t owner;
    void Walk(PageId pid) {
      PageRef page = tree->FixPage(pid);
      if (!page) return;
      page->set_owner_tag(owner);
      BTreeNode node(page->data());
      if (node.is_leaf()) return;
      if (node.leftmost_child() != kInvalidPageId) {
        Walk(tree->Plain(node.leftmost_child()));
      }
      for (int i = 0; i < node.count(); ++i) Walk(tree->Plain(node.ChildAt(i)));
    }
  };
  Walker{this, owner}.Walk(root_);
}

int BTree::height() {
  PageRef root = FixRoot();
  return BTreeNode(root->data()).level() + 1;
}

void BTree::RecountEntries() {
  std::uint64_t n = 0;
  ForEachEntry([&](Slice, Slice) { ++n; });
  num_entries_.store(n, std::memory_order_relaxed);
}

Status BTree::Insert(Slice key, Slice value, TxnId txn) {
  bool needs_smo = false;
  Status st = InsertOptimistic(key, value, txn, &needs_smo);
  if (!needs_smo) return st;
  return InsertPessimistic(key, value, txn);
}

Status BTree::InsertOptimistic(Slice key, Slice value, TxnId txn,
                               bool* needs_smo) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  LatchMode mode =
      node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
  if (policy_ == LatchPolicy::kLatched) cur->latch().Acquire(mode);
  node = BTreeNode(cur->data());  // re-read under latch

  while (!node.is_leaf()) {
    nodes_visited_.fetch_add(1, std::memory_order_relaxed);
    PageRef child = FixChildFor(cur.get(), key);
    BTreeNode child_node(child->data());
    const LatchMode child_mode =
        child_node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
    if (policy_ == LatchPolicy::kLatched) {
      child->latch().Acquire(child_mode);
      cur->latch().Release(mode);
    }
    cur = std::move(child);
    mode = child_mode;
    node = BTreeNode(cur->data());
  }
  nodes_visited_.fetch_add(1, std::memory_order_relaxed);

  const int pos = node.LowerBound(key);
  if (pos < node.count() && node.KeyAt(pos) == key) {
    if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
    return Status::AlreadyExists();
  }
  Status st = node.InsertAt(pos, key, value);
  if (st.ok()) {
    cur->MarkDirty();
    num_entries_.fetch_add(1, std::memory_order_relaxed);
    // Latch-coupled logging: the record is appended (and the page LSN
    // stamped) before the latch/pin are released.
    if (logger_ != nullptr) logger_->LeafInsert(txn, cur.get(), key, value);
    if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
    return Status::OK();
  }
  if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
  *needs_smo = true;
  return Status::OK();
}

Status BTree::InsertPessimistic(Slice key, Slice value, TxnId txn) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  // ARIES/KVL: one SMO at a time per (sub-)tree.
  const bool latched = policy_ == LatchPolicy::kLatched;
  if (latched) smo_mu_.lock();

  std::vector<PageRef> path;
  path.push_back(FixRoot());
  if (latched) path.back()->latch().AcquireExclusive();
  BTreeNode node(path.back()->data());
  while (!node.is_leaf()) {
    PageRef child = FixChildFor(path.back().get(), key);
    if (latched) child->latch().AcquireExclusive();
    path.push_back(std::move(child));
    node = BTreeNode(path.back()->data());
  }

  auto unlock_all = [&] {
    if (latched) {
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        (*it)->latch().ReleaseExclusive();
      }
      smo_mu_.unlock();
    }
  };

  // Re-check for a duplicate inserted since the optimistic pass.
  {
    const int pos = node.LowerBound(key);
    if (pos < node.count() && node.KeyAt(pos) == key) {
      unlock_all();
      return Status::AlreadyExists();
    }
  }

  // Insert, splitting up the path as needed. The leaf-level iteration runs
  // first, so `target_leaf` (the page that received the client key) is
  // always set before any separator bubbles upward.
  SmoScope scope;
  Page* target_leaf = nullptr;
  std::string ins_key = key.ToString();
  std::string ins_val = value.ToString();
  int i = static_cast<int>(path.size()) - 1;
  while (true) {
    const bool at_leaf = i == static_cast<int>(path.size()) - 1;
    Page* page = path[static_cast<std::size_t>(i)].get();
    BTreeNode n(page->data());
    const int pos = n.LowerBound(ins_key);
    if (n.InsertAt(pos, ins_key, ins_val).ok()) {
      page->MarkDirty();
      if (at_leaf) {
        target_leaf = page;
      } else {
        scope.Touch(page);  // separator landed here: part of the SMO
      }
      break;
    }
    if (i == 0) {
      // Full root: split in place (the root page id never changes).
      SplitRoot(page, ins_key, &scope);
      BTreeNode r(page->data());
      PageRef target = FixPage(Plain(r.ChildFor(ins_key)));
      BTreeNode tn(target->data());
      Status st = tn.InsertAt(tn.LowerBound(ins_key), ins_key, ins_val);
      assert(st.ok());
      (void)st;
      target->MarkDirty();
      scope.Touch(target.get());
      if (at_leaf) target_leaf = target.get();
      scope.refs.push_back(std::move(target));
      break;
    }
    std::string sep;
    Page* right = SplitNode(page, ins_key, &sep, &scope);
    Page* target = Slice(ins_key).compare(sep) >= 0 ? right : page;
    BTreeNode tn(target->data());
    Status st = tn.InsertAt(tn.LowerBound(ins_key), ins_key, ins_val);
    assert(st.ok());
    (void)st;
    target->MarkDirty();
    if (at_leaf) target_leaf = target;
    // Bubble the separator into the parent.
    ins_key = sep;
    ins_val = PidValue(right->id());
    --i;
  }

  num_entries_.fetch_add(1, std::memory_order_relaxed);
  if (logger_ != nullptr) {
    // Anchor first, SMO images second: a crash between them leaves the
    // anchor replayable (tolerant no-space skip against the pre-SMO page)
    // while the transaction — whose commit record can only follow the SMO
    // record — is necessarily a loser. The reverse order could make an
    // uncommitted key durable with no undo anchor.
    assert(target_leaf != nullptr);
    logger_->LeafInsert(txn, target_leaf, key, value);
    LogSmoScope(&scope);
  }
  unlock_all();
  return Status::OK();
}

Page* BTree::SplitNode(Page* page, Slice ins_key, std::string* sep,
                       SmoScope* scope) {
  TraceSiteScope trace_site(TraceSite::kBtreeSmo);
  BTreeNode node(page->data());
  // Rightmost-append split: a leaf with no right sibling that receives a
  // key past its last one keeps every entry, and the new leaf starts with
  // the incoming key alone. Ascending loads then fill leaves completely
  // and the leaf-moved hook relocates no heap record.
  const bool append = node.is_leaf() && node.next() == kInvalidPageId &&
                      node.count() > 0 &&
                      ins_key.compare(node.KeyAt(node.count() - 1)) > 0;
  const int mid = append ? node.count() : node.count() / 2;
  PageRef right = NewNodePage(node.level());
  Page* right_raw = right.get();
  BTreeNode rnode(right->data());
  if (node.is_leaf()) {
    ApplyLeafMovedHook(page, mid, right->id());
    node.MoveTail(mid, &rnode);
    *sep = append ? ins_key.ToString() : rnode.KeyAt(0).ToString();
    rnode.set_next(node.next());
    node.set_next(right->id());
  } else {
    // Child refs are about to move to the right node: unswizzle first so
    // no tagged reference crosses pages (a swizzle lives only in the page
    // the child's marker names).
    if (pool_->swizzling_enabled()) BTreeNode::UnswizzleAll(page, pool_);
    *sep = node.KeyAt(mid).ToString();
    rnode.set_leftmost_child(node.ChildAt(mid));
    node.MoveTail(mid + 1, &rnode);
    node.RemoveAt(mid);
  }
  right->MarkDirty();
  page->MarkDirty();
  scope->Touch(page);
  scope->Touch(right_raw);
  scope->refs.push_back(std::move(right));
  smo_count_.fetch_add(1, std::memory_order_relaxed);
  return right_raw;
}

void BTree::SplitRoot(Page* root_page, Slice ins_key, SmoScope* scope) {
  TraceSiteScope trace_site(TraceSite::kBtreeSmo);
  BTreeNode node(root_page->data());
  // Clone the root's contents into a fresh left child, split the clone,
  // and turn the root into an internal node over the two halves. The
  // byte-copy would duplicate tagged refs into a page their markers do
  // not name — unswizzle the root first.
  if (pool_->swizzling_enabled()) BTreeNode::UnswizzleAll(root_page, pool_);
  PageRef left = pool_->AllocatePage(PageClass::kIndex, UINT32_MAX,
                                     /*volatile_index=*/logger_ == nullptr);
  left->set_owner_tag(owner_tag_);
  std::memcpy(left->data(), root_page->data(), kPageSize);
  std::string sep;
  Page* right = SplitNode(left.get(), ins_key, &sep, scope);
  const std::uint16_t new_level = node.level() + 1;
  BTreeNode::Init(root_page->data(), new_level);
  BTreeNode r(root_page->data());
  r.set_leftmost_child(left->id());
  Status st = r.InsertAt(0, sep, PidValue(right->id()));
  assert(st.ok());
  (void)st;
  left->MarkDirty();
  root_page->MarkDirty();
  scope->Touch(left.get());
  scope->Touch(root_page);
  scope->refs.push_back(std::move(left));
}

Status BTree::Probe(Slice key, std::string* value) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  PageRef cur = FixRoot();
  if (policy_ == LatchPolicy::kLatched) cur->latch().AcquireShared();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    nodes_visited_.fetch_add(1, std::memory_order_relaxed);
    PageRef child = FixChildFor(cur.get(), key);
    if (policy_ == LatchPolicy::kLatched) {
      child->latch().AcquireShared();
      cur->latch().ReleaseShared();
    }
    cur = std::move(child);
    node = BTreeNode(cur->data());
  }
  nodes_visited_.fetch_add(1, std::memory_order_relaxed);
  const int pos = node.Find(key);
  Status st = Status::OK();
  if (pos < 0) {
    st = Status::NotFound();
  } else {
    Slice v = node.ValueAt(pos);
    value->assign(v.data(), v.size());
  }
  if (policy_ == LatchPolicy::kLatched) cur->latch().ReleaseShared();
  return st;
}

Status BTree::Update(Slice key, Slice value, TxnId txn) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  LatchMode mode =
      node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
  if (policy_ == LatchPolicy::kLatched) cur->latch().Acquire(mode);
  node = BTreeNode(cur->data());
  while (!node.is_leaf()) {
    PageRef child = FixChildFor(cur.get(), key);
    BTreeNode child_node(child->data());
    const LatchMode child_mode =
        child_node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
    if (policy_ == LatchPolicy::kLatched) {
      child->latch().Acquire(child_mode);
      cur->latch().Release(mode);
    }
    cur = std::move(child);
    mode = child_mode;
    node = BTreeNode(cur->data());
  }
  const int pos = node.Find(key);
  if (pos < 0) {
    if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
    return Status::NotFound();
  }
  const std::string old_value = node.ValueAt(pos).ToString();
  Status st = node.SetValueAt(pos, value);
  if (st.ok()) {
    cur->MarkDirty();
    if (logger_ != nullptr) {
      logger_->LeafUpdate(txn, cur.get(), key, value, old_value);
    }
  }
  if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
  if (st.IsNoSpace()) {
    // Rare: a grown value no longer fits on the leaf. Re-insert through the
    // SMO path (delete + insert; not atomic w.r.t. concurrent readers of
    // this one key, which our single-writer-per-key workloads tolerate).
    PLP_RETURN_IF_ERROR(Delete(key, txn));
    return Insert(key, value, txn);
  }
  return st;
}

Status BTree::Delete(Slice key, TxnId txn) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  LatchMode mode =
      node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
  if (policy_ == LatchPolicy::kLatched) cur->latch().Acquire(mode);
  node = BTreeNode(cur->data());
  while (!node.is_leaf()) {
    nodes_visited_.fetch_add(1, std::memory_order_relaxed);
    PageRef child = FixChildFor(cur.get(), key);
    BTreeNode child_node(child->data());
    const LatchMode child_mode =
        child_node.is_leaf_relaxed() ? LatchMode::kExclusive : LatchMode::kShared;
    if (policy_ == LatchPolicy::kLatched) {
      child->latch().Acquire(child_mode);
      cur->latch().Release(mode);
    }
    cur = std::move(child);
    mode = child_mode;
    node = BTreeNode(cur->data());
  }
  nodes_visited_.fetch_add(1, std::memory_order_relaxed);
  const int pos = node.Find(key);
  Status st = Status::OK();
  if (pos < 0) {
    st = Status::NotFound();
  } else {
    const std::string old_value = node.ValueAt(pos).ToString();
    node.RemoveAt(pos);
    cur->MarkDirty();
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
    if (logger_ != nullptr) {
      logger_->LeafDelete(txn, cur.get(), key, old_value);
    }
  }
  if (policy_ == LatchPolicy::kLatched) cur->latch().Release(mode);
  return st;
}

Status BTree::ScanFrom(Slice start,
                       const std::function<bool(Slice, Slice)>& fn) {
  TraceSiteScope trace_site(TraceSite::kBtreeDescent);
  PageRef cur = FixRoot();
  if (policy_ == LatchPolicy::kLatched) cur->latch().AcquireShared();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    PageRef child = FixChildFor(cur.get(), start);
    if (policy_ == LatchPolicy::kLatched) {
      child->latch().AcquireShared();
      cur->latch().ReleaseShared();
    }
    cur = std::move(child);
    node = BTreeNode(cur->data());
  }
  int pos = node.LowerBound(start);
  for (;;) {
    if (pos >= node.count()) {
      const PageId next = node.next();
      if (next == kInvalidPageId) break;
      PageRef np = FixPage(next);
      if (!np) break;
      if (policy_ == LatchPolicy::kLatched) {
        np->latch().AcquireShared();
        cur->latch().ReleaseShared();
      }
      cur = std::move(np);
      node = BTreeNode(cur->data());
      pos = 0;
      continue;
    }
    if (!fn(node.KeyAt(pos), node.ValueAt(pos))) break;
    ++pos;
  }
  if (policy_ == LatchPolicy::kLatched) cur->latch().ReleaseShared();
  return Status::OK();
}

PageId BTree::LeftmostLeaf() {
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    const PageId child = node.count() > 0 || node.leftmost_child() != kInvalidPageId
                             ? node.leftmost_child()
                             : kInvalidPageId;
    cur = FixPage(Plain(child));
    node = BTreeNode(cur->data());
  }
  return cur->id();
}

PageId BTree::RightmostLeaf() {
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    const PageId child = node.count() > 0 ? node.ChildAt(node.count() - 1)
                                          : node.leftmost_child();
    cur = FixPage(Plain(child));
    node = BTreeNode(cur->data());
  }
  return cur->id();
}

Status BTree::SliceOff(plp::Slice split_key, std::unique_ptr<BTree>* right_out,
                       const PartitionPayloadFn& parts) {
  TraceSiteScope trace_site(TraceSite::kBtreeSmo);
  // Recursively split the spine containing `split_key`; entries (and
  // sub-trees) at or above the key move to newly allocated right-side
  // nodes (Appendix A.3.2). Runs quiesced: no latches needed.
  SmoScope scope;
  struct Slicer {
    BTree* tree;
    plp::Slice key;
    SmoScope* scope;

    PageId SlicePage(PageId pid) {
      PageRef page = tree->FixPage(pid);
      BTreeNode node(page->data());
      PageRef right = tree->NewNodePage(node.level());
      Page* right_raw = right.get();
      BTreeNode rnode(right->data());
      if (node.is_leaf()) {
        const int pos = node.LowerBound(key);
        tree->ApplyLeafMovedHook(page.get(), pos, right_raw->id());
        node.MoveTail(pos, &rnode);
        rnode.set_next(node.next());
        node.set_next(kInvalidPageId);
      } else {
        // Entries move across pages below: drop this node's swizzles up
        // front so only plain ids are recursed on, moved, or logged.
        if (tree->pool_->swizzling_enabled()) {
          BTreeNode::UnswizzleAll(page.get(), tree->pool_);
        }
        const int pos = node.UpperBound(key);
        if (pos > 0 && node.KeyAt(pos - 1) == key) {
          // The child under a separator equal to the key holds only keys
          // >= key: it moves whole, and the separator leaves this node.
          // Slicing into it instead would leave an emptied child under a
          // separator equal to the partition boundary, which a later meld
          // at that boundary would duplicate.
          rnode.set_leftmost_child(node.ChildAt(pos - 1));
          node.MoveTail(pos, &rnode);
          node.RemoveAt(pos - 1);
          CutLeafChain(page.get());
        } else {
          const PageId child =
              pos == 0 ? node.leftmost_child() : node.ChildAt(pos - 1);
          const PageId right_child = SlicePage(child);
          rnode.set_leftmost_child(right_child);
          node.MoveTail(pos, &rnode);
        }
      }
      page->MarkDirty();
      right->MarkDirty();
      scope->Touch(page.get());
      scope->Touch(right_raw);
      scope->refs.push_back(std::move(page));
      scope->refs.push_back(std::move(right));
      return right_raw->id();
    }

    // Ends the leaf chain at the rightmost leaf below `page`, whose next
    // leaf just moved to the right tree.
    void CutLeafChain(Page* page) {
      PageRef leaf;
      BTreeNode node(page->data());
      while (!node.is_leaf()) {
        const PageId child = node.count() > 0 ? node.ChildAt(node.count() - 1)
                                              : node.leftmost_child();
        leaf = tree->FixPage(tree->Plain(child));
        node = BTreeNode(leaf->data());
      }
      node.set_next(kInvalidPageId);
      leaf->MarkDirty();
      scope->Touch(leaf.get());
      scope->refs.push_back(std::move(leaf));
    }
  };

  Slicer slicer{this, split_key, &scope};
  PageId right_root = slicer.SlicePage(root_);

  // Identify degenerate right-root chain pages (internal nodes with no
  // separators). They are trimmed only AFTER the slice record is logged.
  std::vector<PageId> trim;
  for (;;) {
    PageRef rp = FixPage(right_root);
    BTreeNode rn(rp->data());
    if (rn.is_leaf() || rn.count() > 0) break;
    trim.push_back(right_root);
    right_root = Plain(rn.leftmost_child());
  }

  // ONE atomic record for the whole slice: page images (trimmed empties
  // ride along harmlessly) plus — via `parts` — the post-slice partition
  // table, so a crash cannot separate the data movement from the routing
  // change. Forced before returning: the repartition is durable once the
  // caller proceeds.
  if (logger_ != nullptr) {
    SanitizeScope(&scope);
    const Lsn lsn = parts ? logger_->SmoWithPartitions(scope.touched,
                                                       parts(right_root))
                          : logger_->Smo(scope.touched);
    logger_->log()->FlushTo(lsn);
  }
  scope.refs.clear();  // release pins before any page is freed

  for (PageId pid : trim) {
    pool_->FreePage(pid);
    if (logger_ != nullptr) logger_->PageFree(pid);
  }

  auto right = std::unique_ptr<BTree>(
      new BTree(pool_, policy_, right_root, logger_));
  // Recount entries on both sides (slice moves a key range wholesale).
  std::uint64_t right_count = 0;
  right->ForEachEntry([&](plp::Slice, plp::Slice) { ++right_count; });
  right->num_entries_.store(right_count, std::memory_order_relaxed);
  num_entries_.fetch_sub(right_count, std::memory_order_relaxed);
  smo_count_.fetch_add(1, std::memory_order_relaxed);
  *right_out = std::move(right);
  return Status::OK();
}

Status BTree::Meld(BTree* right, plp::Slice boundary_key,
                   const PartitionPayloadFn& parts) {
  TraceSiteScope trace_site(TraceSite::kBtreeSmo);
  SmoScope scope;
  PageId to_free = kInvalidPageId;

  // Both roots may stop being roots here (and root_ may change): drop the
  // root-frame caches and their sticky bits up front. Runs quiesced.
  ResetRootCache();
  right->ResetRootCache();

  // Stitch the leaf chains first.
  {
    PageRef rl = FixPage(RightmostLeaf());
    BTreeNode rln(rl->data());
    rln.set_next(right->LeftmostLeaf());
    rl->MarkDirty();
    scope.Touch(rl.get());
    scope.refs.push_back(std::move(rl));
  }

  const int hl = height();
  const int hr = right->height();
  PageRef lroot = FixPage(root_);
  PageRef rroot = FixPage(right->root_);
  BTreeNode ln(lroot->data());
  BTreeNode rn(rroot->data());

  auto fallback_new_root = [&]() {
    const std::uint16_t level =
        static_cast<std::uint16_t>(std::max(hl, hr));
    PageRef nroot = NewNodePage(level);
    BTreeNode nn(nroot->data());
    nn.set_leftmost_child(root_);
    Status st = nn.InsertAt(0, boundary_key, PidValue(right->root_));
    assert(st.ok());
    (void)st;
    nroot->MarkDirty();
    root_ = nroot->id();
    scope.Touch(nroot.get());
    scope.refs.push_back(std::move(nroot));
  };

  if (hl == hr) {
    // Same height: append the right root's entries onto the left root
    // (Appendix A.3.1, case 1).
    bool merged = false;
    if (ln.is_leaf()) {
      merged = ln.AppendAll(rn).ok();
      if (merged) ln.set_next(rn.next());
    } else {
      // The right root's entries move onto the left root: plain ids only.
      if (pool_->swizzling_enabled()) {
        BTreeNode::UnswizzleAll(rroot.get(), pool_);
      }
      const std::size_t need = 4 + boundary_key.size() + sizeof(PageId) +
                               BTreeNode::kSlotSize;
      if (ln.TotalFreeSpace() >= need &&
          ln.InsertAt(ln.count(), boundary_key,
                      PidValue(rn.leftmost_child()))
              .ok()) {
        if (ln.AppendAll(rn).ok()) {
          merged = true;
        } else {
          ln.RemoveAt(ln.count() - 1);  // roll back the boundary entry
        }
      }
    }
    if (merged) {
      lroot->MarkDirty();
      scope.Touch(lroot.get());
      to_free = right->root_;
    } else {
      fallback_new_root();
    }
  } else if (hl > hr) {
    // Taller left: hang the right root off the left tree's rightmost node
    // at level hr (Appendix A.3.1, case 2).
    PageRef cur = FixPage(root_);
    BTreeNode node(cur->data());
    while (node.level() > hr) {
      const PageId child = node.count() > 0 ? node.ChildAt(node.count() - 1)
                                            : node.leftmost_child();
      cur = FixPage(Plain(child));
      node = BTreeNode(cur->data());
    }
    if (node.InsertAt(node.count(), boundary_key, PidValue(right->root_))
            .ok()) {
      cur->MarkDirty();
      scope.Touch(cur.get());
      scope.refs.push_back(std::move(cur));
    } else {
      fallback_new_root();
    }
  } else {
    // Taller right: hang the left tree off the right tree's leftmost node
    // at level hl (Appendix A.3.1, case 3); the merged root is the right
    // tree's root.
    PageRef cur = FixPage(right->root_);
    BTreeNode node(cur->data());
    while (node.level() > hl) {
      cur = FixPage(Plain(node.leftmost_child()));
      node = BTreeNode(cur->data());
    }
    // The leftmost ref moves into a regular cell below: plain ids only.
    if (pool_->swizzling_enabled()) BTreeNode::UnswizzleAll(cur.get(), pool_);
    const PageId old_leftmost = node.leftmost_child();
    if (node.InsertAt(0, boundary_key, PidValue(old_leftmost)).ok()) {
      node.set_leftmost_child(root_);
      cur->MarkDirty();
      root_ = right->root_;
      scope.Touch(cur.get());
      scope.refs.push_back(std::move(cur));
    } else {
      fallback_new_root();
    }
  }

  // ONE atomic record for the meld: images plus the post-merge partition
  // table. Forced before the absorbed root (a pre-existing page a replay
  // of the OLD partition table would still reference) is freed — freeing
  // a referenced disk slot before the routing change is durable would
  // lose the right partition's keys on crash.
  if (logger_ != nullptr) {
    SanitizeScope(&scope);
    const Lsn lsn = parts ? logger_->SmoWithPartitions(scope.touched,
                                                       parts(root_))
                          : logger_->Smo(scope.touched);
    logger_->log()->FlushTo(lsn);
  }
  scope.refs.clear();
  lroot.Reset();
  rroot.Reset();
  if (to_free != kInvalidPageId) {
    pool_->FreePage(to_free);
    if (logger_ != nullptr) logger_->PageFree(to_free);
  }

  num_entries_.fetch_add(right->num_entries(), std::memory_order_relaxed);
  smo_count_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BTree::ApproxMedianKey(std::string* out) {
  PageRef cur = FixRoot();
  BTreeNode node(cur->data());
  while (!node.is_leaf()) {
    const int mid = node.count() / 2;
    const PageId child = node.count() == 0
                             ? node.leftmost_child()
                             : node.ChildAt(std::max(0, mid - 1));
    cur = FixPage(Plain(child));
    node = BTreeNode(cur->data());
  }
  if (node.count() == 0) return Status::NotFound("empty tree");
  *out = node.KeyAt(node.count() / 2).ToString();
  return Status::OK();
}

Status BTree::MinKey(std::string* out) {
  PageRef cur = FixPage(LeftmostLeaf());
  for (;;) {
    BTreeNode node(cur->data());
    if (node.count() > 0) {
      *out = node.KeyAt(0).ToString();
      return Status::OK();
    }
    if (node.next() == kInvalidPageId) return Status::NotFound();
    cur = FixPage(node.next());
  }
}

void BTree::ForEachEntry(const std::function<void(plp::Slice, plp::Slice)>& fn) {
  struct Walker {
    BTree* tree;
    const std::function<void(plp::Slice, plp::Slice)>& fn;
    void Walk(PageId pid) {
      PageRef page = tree->FixPage(pid);
      if (!page) return;
      BTreeNode node(page->data());
      if (node.is_leaf()) {
        for (int i = 0; i < node.count(); ++i) {
          fn(node.KeyAt(i), node.ValueAt(i));
        }
        return;
      }
      if (node.leftmost_child() != kInvalidPageId) {
        Walk(tree->Plain(node.leftmost_child()));
      }
      for (int i = 0; i < node.count(); ++i) Walk(tree->Plain(node.ChildAt(i)));
    }
  };
  Walker{this, fn}.Walk(root_);
}

Status BTree::CheckIntegrity() {
  struct Checker {
    BTree* tree;
    Status status = Status::OK();

    void Check(PageId pid, const std::string* lo, const std::string* hi,
               int expected_level) {
      if (!status.ok()) return;
      PageRef page = tree->FixPage(pid);
      if (!page) {
        status = Status::Corruption("dangling child pointer");
        return;
      }
      BTreeNode node(page->data());
      // Levels strictly decrease toward the leaves. (Meld can legitimately
      // hang shorter sub-trees below a node, so equality with parent-1 is
      // not required.)
      if (expected_level >= 0 && node.level() >= expected_level) {
        status = Status::Corruption("level not decreasing");
        return;
      }
      for (int i = 0; i < node.count(); ++i) {
        if (i > 0 && !(node.KeyAt(i - 1) < node.KeyAt(i))) {
          status = Status::Corruption("keys out of order");
          return;
        }
        if (lo && node.KeyAt(i) < plp::Slice(*lo)) {
          status = Status::Corruption("key below lower bound");
          return;
        }
        if (hi && !(node.KeyAt(i) < plp::Slice(*hi))) {
          status = Status::Corruption("key above upper bound");
          return;
        }
      }
      if (node.is_leaf()) return;
      if (node.leftmost_child() == kInvalidPageId) {
        status = Status::Corruption("internal node without leftmost child");
        return;
      }
      // leftmost child: keys in [lo, key0)
      {
        std::string first = node.count() > 0 ? node.KeyAt(0).ToString() : "";
        Check(tree->Plain(node.leftmost_child()), lo,
              node.count() > 0 ? &first : hi, node.level());
      }
      for (int i = 0; i < node.count(); ++i) {
        std::string this_key = node.KeyAt(i).ToString();
        std::string next_key =
            i + 1 < node.count() ? node.KeyAt(i + 1).ToString() : "";
        Check(tree->Plain(node.ChildAt(i)), &this_key,
              i + 1 < node.count() ? &next_key : hi, node.level());
      }
    }
  };
  Checker checker{this};
  checker.Check(root_, nullptr, nullptr, -1);
  return checker.status;
}

}  // namespace plp

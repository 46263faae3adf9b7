// ARIES/KVL-style B+Tree over buffer-pool pages.
//
// Latched mode (conventional / logical-only systems): probes crab shared
// latches down the tree; writers take an exclusive latch on the leaf; any
// structure modification (SMO) serializes behind a per-tree SMO mutex and
// re-descends holding exclusive latches — the single-SMO-at-a-time rule of
// ARIES/KVL that Section B of the paper measures.
//
// Latch-free mode (PLP partitions): the subtree is owned by exactly one
// thread, so every latch acquisition and the SMO mutex are skipped, and
// page fixes bypass the buffer-pool critical section.
//
// Persistence: with an IndexLogger attached (every table of a durable
// database) every page visited by a mutation is PINNED for the
// duration of the operation and every mutation appends a physiological
// WAL record before the pin is released (latch-coupled logging — see
// src/index/persistent/index_log.h). Index pages are then evictable like
// heap pages and crash recovery redoes index history from the log.
//
// The same class also serves as one MRBTree sub-tree; MRBTree performs
// slice (split off a key range) and meld (absorb a neighbor) through the
// methods at the bottom.
#ifndef PLP_INDEX_BTREE_H_
#define PLP_INDEX_BTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/common/slice.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/index/btree_node.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class IndexLogger;

class BTree {
 public:
  /// Creates an empty tree (root = empty leaf). With a logger the fresh
  /// root's image is logged so restart can materialize it.
  BTree(BufferPool* pool, LatchPolicy policy, IndexLogger* logger = nullptr);
  /// Adopts an existing root page (MRBTree slice/meld and restart
  /// recovery produce these). Never logs the adoption.
  BTree(BufferPool* pool, LatchPolicy policy, PageId root,
        IndexLogger* logger = nullptr);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  PageId root() const { return root_; }
  LatchPolicy latch_policy() const { return policy_; }
  IndexLogger* logger() const { return logger_; }

  /// Unique-key insert. kAlreadyExists on duplicates. `txn` tags the WAL
  /// record when a logger is attached (loser-undo anchor).
  Status Insert(Slice key, Slice value, TxnId txn = kInvalidTxnId);

  /// Exact-match lookup.
  Status Probe(Slice key, std::string* value);

  /// Replaces the value of an existing key.
  Status Update(Slice key, Slice value, TxnId txn = kInvalidTxnId);

  /// Removes a key. Leaves underfull pages in place (no merge on delete,
  /// as in Shore-MT).
  Status Delete(Slice key, TxnId txn = kInvalidTxnId);

  /// In-order scan starting at the first key >= `start`; stops when the
  /// callback returns false.
  Status ScanFrom(Slice start,
                  const std::function<bool(Slice key, Slice value)>& fn);

  /// Levels in the tree (1 = a single leaf).
  int height();

  std::uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  /// Completed structure modification operations (splits).
  std::uint64_t smo_count() const {
    return smo_count_.load(std::memory_order_relaxed);
  }
  /// Nodes touched by probes/inserts (validates "one level shallower").
  std::uint64_t nodes_visited() const {
    return nodes_visited_.load(std::memory_order_relaxed);
  }

  /// Recomputes num_entries from the pages (restart recovery adopts roots
  /// whose entry population only the pages know).
  void RecountEntries();

  // --- MRBTree structural support (callers quiesce the tree first) ------

  /// Post-repartition partition-table provider (persistent mode): the
  /// owning MRBTree computes the (boundary -> root) layout that will hold
  /// once this slice/meld completes, so the tree can log ONE atomic
  /// record carrying both the SMO page images and the routing change —
  /// a crash can never make one durable without the other. The record is
  /// forced before pre-existing pages are freed and before the call
  /// returns (a repartition is durable once it completes).
  using PartitionPayloadFn = std::function<
      std::vector<std::pair<std::string, PageId>>(PageId new_root)>;

  /// Splits off all entries with key >= `split_key` into a new tree
  /// (Appendix A.3.2 "slice"). Entry counts are adjusted on both sides.
  /// `parts` (persistent mode) receives the new right tree's root.
  Status SliceOff(Slice split_key, std::unique_ptr<BTree>* right_out,
                  const PartitionPayloadFn& parts = {});

  /// Absorbs `right`, all of whose keys are >= `boundary_key` and sort
  /// after every key in this tree (Appendix A.3.1 "meld"). On success the
  /// right tree's pages belong to this tree and `right` must be discarded.
  /// `parts` (persistent mode) receives the merged tree's root.
  Status Meld(BTree* right, Slice boundary_key,
              const PartitionPayloadFn& parts = {});

  /// First key in the tree (kNotFound when empty).
  Status MinKey(std::string* out);

  /// A key near the middle of the tree's key population (descends through
  /// middle children). Used to pick split points when rebalancing load.
  Status ApproxMedianKey(std::string* out);

  /// Walks every entry (no latching; for tests and integrity checks).
  void ForEachEntry(const std::function<void(Slice, Slice)>& fn);

  /// Verifies ordering and structural invariants; returns kCorruption on
  /// the first violation (property tests use this).
  Status CheckIntegrity();

  /// Page id of the leaf that would hold `key` (PLP-Leaf uses leaf page
  /// ids as heap-page owner tags, Section 3.3).
  PageId LeafFor(Slice key);

  /// PLP-Leaf callback: invoked for every leaf entry that migrates to a
  /// different leaf page during a split or slice. Receives (key, value,
  /// new_leaf_pid) and returns the replacement value ("" keeps the old
  /// one). The PLP-Leaf engine uses it to COPY the heap record to a page
  /// owned by the new leaf and to refresh the stored RID — the storage-
  /// manager callback mechanism of Section 3.3. The old location is
  /// released through the release hook below only after the index entry
  /// has been re-pointed (and, in persistent mode, the re-point logged):
  /// copy -> re-point -> release gives each moved entry a crash-safe
  /// ordering where every log prefix leaves the record reachable.
  using LeafEntryMovedHook =
      std::function<std::string(Slice key, Slice value, PageId new_leaf)>;
  void set_leaf_moved_hook(LeafEntryMovedHook hook) {
    leaf_moved_hook_ = std::move(hook);
  }
  /// Releases the heap location a moved entry previously pointed at
  /// (receives the old index value). See set_leaf_moved_hook.
  using LeafEntryReleaseHook = std::function<void(Slice old_value)>;
  void set_leaf_moved_release_hook(LeafEntryReleaseHook hook) {
    leaf_moved_release_hook_ = std::move(hook);
  }

  /// Owner tag stamped on pages this tree allocates (see RetagPages).
  void set_owner_tag(std::uint32_t tag) { owner_tag_ = tag; }
  std::uint32_t owner_tag() const { return owner_tag_; }

  /// Tags every page of this tree with `owner` (frame-level tag used by
  /// the page cleaner to delegate cleaning to the owning partition).
  void RetagPages(std::uint32_t owner);

 private:
  /// Pages touched by one structure modification: keeps every new page
  /// pinned until the SMO record is logged and remembers which frames
  /// need an after-image.
  struct SmoScope {
    std::vector<PageRef> refs;      // pins for pages created mid-SMO
    std::vector<Page*> touched;     // frames mutated (deduped by Smo())
    std::vector<PageId> freed;
    void Touch(Page* page) { touched.push_back(page); }
  };

  PageRef FixPage(PageId id);
  PageRef NewNodePage(std::uint16_t level);

  /// Fixes the root with zero page-table lookups once cached: the first
  /// fix marks the root frame sticky (never a steal victim) and caches the
  /// frame pointer, so later fixes just pin. Falls back to FixPage when
  /// swizzling is off or root_ changed (slice/meld, quiesced).
  PageRef FixRoot();
  /// Invalidates the root-frame cache (root_ is about to change) and drops
  /// the old frame's sticky bit.
  void ResetRootCache();

  /// Follows the child reference for `key` out of `parent` (latched by the
  /// caller in latched mode). A swizzled reference resolves straight to
  /// the frame — no page-table lookup; a plain reference fixes through the
  /// pool and then installs a swizzle for the next descent (latched trees
  /// only: the install/unswizzle protocol relies on the parent latch).
  PageRef FixChildFor(Page* parent, Slice key);

  /// Plain PageId behind a possibly-swizzled child reference.
  PageId Plain(PageId ref) const { return pool_->RefToPid(ref); }

  /// Rewrites every swizzled reference in the scope's touched pages back
  /// to plain PageIds — run before their images are encoded into an SMO
  /// record so no tagged PageId ever reaches the WAL.
  void SanitizeScope(SmoScope* scope);

  Status InsertOptimistic(Slice key, Slice value, TxnId txn,
                          bool* needs_smo);
  // protocol: policy-elided SMO serialization — smo_mu_ and the page
  // latches are taken only under LatchPolicy::kLatched (partition-owned
  // trees are single-writer by the PLP ownership discipline), which the
  // analysis cannot follow through the conditional acquire/release.
  Status InsertPessimistic(Slice key, Slice value, TxnId txn)
      PLP_NO_THREAD_SAFETY_ANALYSIS;

  /// Splits `node` (already exclusively owned by the caller), returning
  /// the new right page; `*sep` receives the separator key. `ins_key` is
  /// the key whose insertion forced the split: a rightmost leaf receiving
  /// a key past its last entry splits there (the new page gets no
  /// entries), every other node at its middle. The right page's pin
  /// lives in `scope` until the SMO record is logged.
  Page* SplitNode(Page* page, Slice ins_key, std::string* sep,
                  SmoScope* scope);

  /// Handles a full root in place (the root page id never changes).
  void SplitRoot(Page* root_page, Slice ins_key, SmoScope* scope);

  /// Logs the scope's after-images and frees in one atomic SMO record
  /// (no-op without a logger).
  void LogSmoScope(SmoScope* scope);

  PageId LeftmostLeaf();
  PageId RightmostLeaf();

  /// Runs the leaf-moved protocol (copy -> re-point -> release) for the
  /// entries [from, count) of `leaf`, which are about to move to
  /// `new_leaf`. Runs BEFORE the tail moves so the re-point records
  /// target the page the entries currently live on — a crash that loses
  /// the SMO record then still replays valid RIDs into the unsplit leaf.
  void ApplyLeafMovedHook(Page* leaf, int from, PageId new_leaf);

  BufferPool* pool_;
  const LatchPolicy policy_;
  PageId root_;
  std::atomic<Page*> root_frame_{nullptr};
  TrackedMutex smo_mu_{CsCategory::kPageLatch};
  IndexLogger* logger_;
  LeafEntryMovedHook leaf_moved_hook_;
  LeafEntryReleaseHook leaf_moved_release_hook_;
  std::uint32_t owner_tag_ = UINT32_MAX;

  std::atomic<std::uint64_t> num_entries_{0};
  std::atomic<std::uint64_t> smo_count_{0};
  std::atomic<std::uint64_t> nodes_visited_{0};
};

}  // namespace plp

#endif  // PLP_INDEX_BTREE_H_

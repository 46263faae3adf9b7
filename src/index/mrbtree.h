// Multi-rooted B+Tree (MRBTree) — the paper's access method (Section 3.1,
// Appendix A).
//
// A partition table maps disjoint key ranges to sub-tree roots; each
// sub-tree is an ordinary B+Tree one level shallower than the equivalent
// single-rooted tree. Structure modifications are confined to a sub-tree,
// so SMOs on different partitions proceed in parallel; repartitioning is a
// metadata operation (slice/meld) that moves almost no data.
#ifndef PLP_INDEX_MRBTREE_H_
#define PLP_INDEX_MRBTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/index/btree.h"
#include "src/index/partition_table.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class IndexLogger;

class MRBTree {
 public:
  /// Creates an MRBTree whose partitions start at the given keys.
  /// `boundaries[0]` must be empty (the -inf partition); each boundary
  /// starts a new partition. One empty sub-tree is allocated per range.
  ///
  /// With `logger`, sub-trees log their pages physiologically and the
  /// partition table is logically logged on create and after every
  /// slice/meld (durable databases). `log_creation = false` builds
  /// restart placeholders: nothing is logged, and the first
  /// AdoptPartitions() call replaces (and frees) the placeholder roots
  /// with the recovered ones.
  static Status Create(BufferPool* pool, LatchPolicy policy,
                       std::vector<std::string> boundaries,
                       std::unique_ptr<MRBTree>* out,
                       IndexLogger* logger = nullptr,
                       bool log_creation = true);

  MRBTree(const MRBTree&) = delete;
  MRBTree& operator=(const MRBTree&) = delete;

  // -- Record operations (route via the ranges map, then delegate) --------
  // `txn` tags the physiological WAL records of a logged tree
  // (loser-undo anchors); kInvalidTxnId marks a system/compensation op.
  Status Insert(Slice key, Slice value, TxnId txn = kInvalidTxnId);
  Status Probe(Slice key, std::string* value);
  Status Update(Slice key, Slice value, TxnId txn = kInvalidTxnId);
  Status Delete(Slice key, TxnId txn = kInvalidTxnId);

  /// Cross-partition ordered scan starting at `start`.
  Status ScanFrom(Slice start,
                  const std::function<bool(Slice, Slice)>& fn);

  // -- Partition-aware access (PLP workers use these directly, bypassing
  //    the routing lookup during normal processing) -----------------------
  PartitionId PartitionFor(Slice key) const {
    return table_->PartitionFor(key);
  }
  BTree* subtree(PartitionId p);
  std::size_t num_partitions() const { return table_->NumPartitions(); }
  /// Start key of partition p ("" for partition 0).
  std::string boundary(PartitionId p) const;
  /// All partition start keys, in order.
  std::vector<std::string> boundaries() const;

  // -- Repartitioning (callers quiesce affected partitions first) ---------

  /// Splits the partition containing `split_key` into two at that key
  /// (sub-tree slice + partition-table insert).
  Status Split(Slice split_key);

  /// Melds partition `p` into its left neighbor `p-1`.
  Status Merge(PartitionId p);

  // -- Persistence (logged trees) ------------------------------------------

  /// Current (boundary, sub-tree root) pairs — the logically-logged
  /// partition metadata a checkpoint records.
  std::vector<std::pair<std::string, PageId>> PartitionEntries() const;

  /// Restart recovery: replaces the partition layout with recovered
  /// (boundary, root) pairs; sub-trees adopt the given roots. The first
  /// call on a restart placeholder frees the placeholder's empty pages.
  Status AdoptPartitions(
      const std::vector<std::pair<std::string, PageId>>& parts);

  /// Recomputes per-sub-tree entry counters from the pages (after
  /// AdoptPartitions the counters are unknown).
  void RecountEntries();

  // -- Introspection -------------------------------------------------------
  std::uint64_t num_entries() const;
  std::uint64_t smo_count() const;
  PartitionTable& table() { return *table_; }
  IndexLogger* logger() const { return logger_; }
  Status CheckIntegrity();

 private:
  MRBTree(BufferPool* pool, LatchPolicy policy);

  Status PersistTable();

  BufferPool* pool_;
  LatchPolicy policy_;
  IndexLogger* logger_ = nullptr;
  bool placeholder_ = false;  // restart placeholder awaiting adoption
  std::unique_ptr<PartitionTable> table_;

  mutable SharedMutex mu_;  // guards subtrees_/boundaries_ layout
  std::vector<std::string> boundaries_ PLP_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<BTree>> subtrees_ PLP_GUARDED_BY(mu_);
};

}  // namespace plp

#endif  // PLP_INDEX_MRBTREE_H_

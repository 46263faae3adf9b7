// Fuzzy checkpoints.
//
// A checkpoint is one kCheckpoint log record whose payload serializes:
//   * the dirty page table (page id -> rec_lsn, heap and index pages) —
//     the redo scan can start at min(rec_lsn) instead of the log's
//     beginning;
//   * the active transaction table (txn id -> begin_lsn) — the undo
//     low-water mark, and the seed of loser detection;
//   * per-table MRBTree partition metadata (boundary -> sub-tree root),
//     a few bytes per partition — the baseline restart needs because WAL
//     truncation may have reclaimed the original kPartitionTable records;
//   * the transaction and page id allocators.
// After the record is forced to the WAL, the checkpoint LSN is published
// in the master record file (atomic rename), which restart reads to find
// where to begin.
//
// The checkpoint is truly fuzzy: index pages are physiologically logged
// like heap pages, so the payload carries no index contents. Its size is
// O(dirty pages + active txns + partitions), independent of index size,
// and no quiescing is required.
#ifndef PLP_IO_CHECKPOINT_H_
#define PLP_IO_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace plp {

struct CheckpointImage {
  /// Log position when the checkpoint started collecting its tables (the
  /// ARIES begin_checkpoint). Activity between this LSN and the record's
  /// own append is not reflected in the tables below, so the restart scan
  /// must start no later than here.
  Lsn begin_lsn = 0;
  std::vector<std::pair<PageId, Lsn>> dirty_pages;       // id -> rec_lsn
  std::vector<std::pair<TxnId, Lsn>> active_txns;        // id -> begin_lsn
  TxnId next_txn_id = 1;
  /// Page-id allocator high-water mark. Restart must allocate fresh pages
  /// (rebuilt index roots) above every id the log can mention; storing
  /// the mark here keeps the restart scan bounded by the checkpoint.
  PageId next_page_id = 1;

  struct TablePartitions {
    std::uint32_t table_id = 0;
    /// MRBTree partition metadata: (start_key, sub-tree root page id).
    std::vector<std::pair<std::string, PageId>> parts;
  };
  /// The partition-table baseline per table.
  std::vector<TablePartitions> partitions;

  std::string Encode() const;
  static Status Decode(const std::string& payload, CheckpointImage* out);

  /// Where the restart log scan must begin to cover this checkpoint:
  /// min(checkpoint lsn, dirty-page rec_lsns, active-txn begin_lsns).
  Lsn ScanStart(Lsn checkpoint_lsn) const;
};

/// Master record: the durably-published LSN of the last checkpoint.
/// Written via temp-file + rename so readers never see a torn value.
Status WriteMasterRecord(const std::string& path, Lsn checkpoint_lsn);

/// kNotFound when no checkpoint has ever been published.
Status ReadMasterRecord(const std::string& path, Lsn* checkpoint_lsn);

}  // namespace plp

#endif  // PLP_IO_CHECKPOINT_H_

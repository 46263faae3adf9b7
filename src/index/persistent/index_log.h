// Physiological WAL logging for persistent B+Tree pages.
//
// An IndexLogger is attached to every BTree/MRBTree of a durable table
// (one whose database has a DatabaseConfig::data_dir). Index nodes then
// behave like heap pages: every mutation appends a WAL record that stamps
// the frame's page LSN (WAL-rule steal barrier + fuzzy-checkpoint rec_lsn),
// so index pages can be evicted and read back, and restart recovery redoes
// index history from the log instead of deserializing a snapshot.
//
// Record kinds (src/log/log_record.h):
//  * kIndexLeafInsert/Delete/Update — one key-level op on one page.
//    Physical to the page (rid.page_id), logical within it (the key is
//    re-located by binary search at redo). Tagged with the mutating
//    transaction: recovery uses the same record as the loser-undo anchor
//    and compensates logically through the tree.
//  * kIndexSmo — ONE record holding trimmed after-images of every page a
//    structure modification (split, root split, slice, meld) touched.
//    Single-record atomicity means a crash can never make half a split
//    durable: either the whole record is in the log or none of it.
//    System-tagged (txn = kInvalidTxnId): SMOs are never undone
//    (nested-top-action semantics — an abort removes the key, not the
//    split).
//  * kIndexPageFree — a page returned to the pool (meld/slice trimming).
//  * kPartitionTable — logical snapshot of an MRBTree's partition table
//    (boundary -> sub-tree root), appended on create and after every
//    slice/meld. Restart rebuilds the multi-rooted metadata from the
//    newest one (the checkpoint image carries a baseline so WAL
//    truncation cannot lose it).
//
// Latch-coupled logging contract: callers append the record while still
// holding the page exclusively (latch or partition ownership) AND pinned,
// which closes the modify->log window — an eviction cannot steal a frame
// between the byte change and the page-LSN stamp because the pin blocks
// the steal and the stamp lands before the pin is released.
#ifndef PLP_INDEX_PERSISTENT_INDEX_LOG_H_
#define PLP_INDEX_PERSISTENT_INDEX_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/buffer/page.h"
#include "src/common/slice.h"
#include "src/common/types.h"
#include "src/log/log_manager.h"

namespace plp {

/// (key, value) payload of a leaf record: [u16 klen][key][value].
std::string EncodeIndexEntry(Slice key, Slice value);
void DecodeIndexEntry(Slice payload, std::string* key, std::string* value);

/// Trimmed after-image of one B+Tree node: the used head (header + slot
/// directory) and the used cell area, skipping the dead middle of the
/// page. Typically well under half a page right after a split.
std::string EncodeNodeImage(const char* page_data);
/// Restores a trimmed image over `page_data` (zeroes the gap). False on a
/// malformed image.
bool ApplyNodeImage(Slice image, char* page_data);

/// kIndexSmo payload: [u32 n] n x ([u32 pid][u32 len][image]).
std::string EncodeSmoPayload(
    const std::vector<std::pair<PageId, std::string>>& images);
bool DecodeSmoPayload(Slice payload,
                      std::vector<std::pair<PageId, std::string>>* out);

/// kPartitionTable payload: [u32 n] n x ([u32 root][u32 klen][start_key]).
std::string EncodePartitionPayload(
    const std::vector<std::pair<std::string, PageId>>& parts);
bool DecodePartitionPayload(
    Slice payload, std::vector<std::pair<std::string, PageId>>* out);

/// kIndexRepartition payload: [bytes partition_payload][bytes smo_payload].
bool DecodeRepartitionPayload(
    Slice payload, std::vector<std::pair<std::string, PageId>>* parts,
    std::vector<std::pair<PageId, std::string>>* images);

// --- Tolerant page-local redo appliers (recovery) -----------------------
// Gated by page LSN at the call site; tolerant of already-applied state
// (an insert anchor logged just before its SMO record may target a page
// whose pre-SMO image has no room — the transaction cannot have committed,
// so dropping the op is correct; see docs/persistent_index.md).
void RedoLeafInsert(char* page_data, Slice key, Slice value);
void RedoLeafDelete(char* page_data, Slice key);
void RedoLeafUpdate(char* page_data, Slice key, Slice value);
/// Formats a freshly-materialized (zeroed) frame as an empty leaf exactly
/// once, so redo never interprets raw zeroes as a node.
void EnsureNodeFormatted(char* page_data);

/// Appends persistent-index records for one table's trees. Thread-safe
/// (LogManager::Append is). Every append stamps the frame via
/// Page::StampUpdate, advancing page_lsn and pinning rec_lsn.
class IndexLogger {
 public:
  IndexLogger(LogManager* log, std::uint32_t table_id)
      : log_(log), table_id_(table_id) {}

  IndexLogger(const IndexLogger&) = delete;
  IndexLogger& operator=(const IndexLogger&) = delete;

  Lsn LeafInsert(TxnId txn, Page* page, Slice key, Slice value);
  Lsn LeafDelete(TxnId txn, Page* page, Slice key, Slice old_value);
  Lsn LeafUpdate(TxnId txn, Page* page, Slice key, Slice new_value,
                 Slice old_value);

  /// One atomic SMO record with the after-image of every touched page.
  /// `pages` may contain duplicates (deduplicated here).
  Lsn Smo(const std::vector<Page*>& pages);

  /// One atomic repartition record: the SMO images of `pages` AND the
  /// post-repartition partition table. Slice/meld use this so no crash
  /// can separate the page moves from the routing change.
  Lsn SmoWithPartitions(
      const std::vector<Page*>& pages,
      const std::vector<std::pair<std::string, PageId>>& parts);

  Lsn PageFree(PageId id);

  Lsn LogPartitionTable(
      const std::vector<std::pair<std::string, PageId>>& parts);

  LogManager* log() { return log_; }
  std::uint32_t table_id() const { return table_id_; }

 private:
  Lsn AppendLeaf(LogType type, TxnId txn, Page* page, std::string redo,
                 std::string undo);

  LogManager* log_;
  const std::uint32_t table_id_;
};

}  // namespace plp

#endif  // PLP_INDEX_PERSISTENT_INDEX_LOG_H_

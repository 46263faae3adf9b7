// Write-ahead log record format.
#ifndef PLP_LOG_LOG_RECORD_H_
#define PLP_LOG_LOG_RECORD_H_

#include <cstdint>
#include <string>

#include "src/common/types.h"

namespace plp {

enum class LogType : std::uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kHeapInsert = 4,
  kHeapUpdate = 5,
  kHeapDelete = 6,
  // 7 and 8 are retired (logical index records); do not reuse them.
  kCheckpoint = 9,
  // Physiological persistent-index records (src/index/persistent). Leaf
  // records are physical-to-page (rid.page_id), logical-within-page (key):
  // redo re-applies the op on that page; undo compensates through the
  // tree. SMO records carry trimmed after-images of every page one
  // structure modification touched — a single record, so a torn tail can
  // never leave half a split durable.
  kIndexLeafInsert = 10,
  kIndexLeafDelete = 11,
  kIndexLeafUpdate = 12,
  kIndexSmo = 13,
  kIndexPageFree = 14,
  // Logical snapshot of one MRBTree's partition table (boundary -> root
  // page id); appended on create so restart rebuilds the multi-rooted
  // metadata without an index snapshot.
  kPartitionTable = 15,
  // One atomic record for a slice/meld: the SMO page images AND the
  // post-repartition partition table together. A crash can never make
  // the page moves durable without the routing change (or vice versa).
  kIndexRepartition = 16,
};

const char* LogTypeName(LogType t);

/// One physiological log record: the affected page/RID plus redo and undo
/// images. Begin/commit/abort records carry no images. `table` names the
/// table a heap/index op belongs to so restart recovery can route the
/// replay to the right heap file and primary index (UINT32_MAX when the
/// record is not table-scoped). Checkpoint records carry the serialized
/// CheckpointImage in `redo`.
struct LogRecord {
  LogType type = LogType::kBegin;
  TxnId txn = kInvalidTxnId;
  Rid rid;                // affected record (heap ops); invalid otherwise
  std::uint32_t table = UINT32_MAX;  // owning table id (heap/index ops)
  std::string redo;       // after-image / inserted key or payload
  std::string undo;       // before-image / deleted key or payload

  /// Wire format: [u32 total][u8 type][u64 txn][u32 page][u16 slot]
  ///              [u32 table][u32 redo_len][u32 undo_len][redo][undo]
  std::string Serialize() const;

  /// Parses one record from `data` (at least `size` bytes available).
  /// On success stores the record and its encoded length. Returns false if
  /// the buffer does not contain a complete, well-formed record.
  static bool Deserialize(const char* data, std::size_t size, LogRecord* out,
                          std::size_t* consumed);

  std::size_t SerializedSize() const { return kHeaderSize + redo.size() + undo.size(); }

  static constexpr std::size_t kHeaderSize = 4 + 1 + 8 + 4 + 2 + 4 + 4 + 4;
};

}  // namespace plp

#endif  // PLP_LOG_LOG_RECORD_H_

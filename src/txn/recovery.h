// ARIES-style restart recovery of a durable Database over its on-disk WAL.
//
// One entry point, RecoverDatabase(), run by the Database constructor on
// every durable open. It starts from the last fuzzy checkpoint
// (src/io/checkpoint.h), adopts its MRBTree partition baseline, reads the
// log segments from min(rec_lsn, active begin_lsns), and routes
// table-scoped records to the right heap file / primary index of the
// catalog-loaded Database. Three passes:
//  1. Analysis — classify transactions into winners (committed) and losers
//     (active or aborted at the crash). System records (txn ==
//     kInvalidTxnId: SMO images, partition tables, logged compensations,
//     heap moves) are repeat-history-only.
//  2. Redo — repeat winner/system history: heap operations by exact RID
//     (SlottedPage::PutAt, LSN-gated per page; loser heap records are
//     skipped — the undo pass covers them and redoing them could
//     transiently overcommit pages), index operations physiologically
//     (leaf records + SMO/repartition page images; see
//     docs/persistent_index.md).
//  3. Undo — compensate loser index leaf ops logically through the
//     recovered trees and roll back loser heap operations newest-first
//     from before-images. Every undo is logged (index compensations as
//     system leaf records, heap undos as CLRs: system heap records whose
//     redo image is the compensation), so a crash during or after
//     recovery replays them like any other history.
//
// A same-RID (same-key) write by a later winner takes precedence over a
// loser's undo. In-memory databases have no scannable log and are not
// recoverable.
#ifndef PLP_TXN_RECOVERY_H_
#define PLP_TXN_RECOVERY_H_

#include <cstdint>

#include "src/buffer/buffer_pool.h"
#include "src/common/status.h"
#include "src/io/checkpoint.h"
#include "src/log/log_manager.h"

namespace plp {

class Database;

class RecoveryManager {
 public:
  struct Stats {
    std::uint64_t winners = 0;
    std::uint64_t losers = 0;
    std::uint64_t redo_ops = 0;
    std::uint64_t undo_ops = 0;
    std::uint64_t index_ops = 0;
    Lsn scan_start = 0;
  };

  RecoveryManager(LogManager* log, BufferPool* pool)
      : log_(log), pool_(pool) {}

  /// Durable restart over a catalog-loaded Database (tables exist with
  /// placeholder primary indexes, heap page lists rebuilt from the data
  /// file).
  /// `checkpoint_lsn`/`image` come from the master record; pass
  /// has_checkpoint=false for a first start / pre-checkpoint crash.
  Status RecoverDatabase(Database* db, bool has_checkpoint,
                         Lsn checkpoint_lsn, const CheckpointImage& image,
                         Stats* stats);

 private:
  LogManager* log_;
  BufferPool* pool_;
};

}  // namespace plp

#endif  // PLP_TXN_RECOVERY_H_

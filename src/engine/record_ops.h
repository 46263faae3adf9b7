// Composite record operations (heap + primary index + secondaries + WAL +
// undo) shared by every execution design. Subclasses supply the logical
// concurrency control: the conventional engine takes record locks from the
// central lock manager; the partitioned designs need none because each
// partition is single-threaded.
#ifndef PLP_ENGINE_RECORD_OPS_H_
#define PLP_ENGINE_RECORD_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "src/engine/action.h"
#include "src/engine/database.h"
#include "src/lock/lock_mode.h"

namespace plp {

/// Encoding of a RID as an index value.
std::string RidToBytes(Rid rid);
Rid RidFromBytes(Slice bytes);

/// Builds a HeapFile::MutationHook that appends a redo-only SYSTEM heap
/// record (txn = kInvalidTxnId) and stamps the page while it is still
/// pinned+held. Used for heap-record moves during leaf splits and
/// repartitioning in durable databases: recovery repeats them as history
/// and never undoes them. `log` may be null (no-op hook, in-memory mode).
HeapFile::MutationHook SystemHeapLogHook(LogManager* log,
                                         std::uint32_t table_id,
                                         LogType type, std::string image);

class BaseExecContext : public ExecContext {
 public:
  /// `undo_sink` collects compensation closures; the caller decides where
  /// they run (inline for conventional, on the owning worker for
  /// partitioned designs). `owner_uid` tags heap pages in the owned heap
  /// modes (global partition uid; ignored for kShared heaps).
  BaseExecContext(Table* table, Transaction* txn, LogManager* log,
                  std::uint32_t owner_uid,
                  std::vector<std::function<Status()>>* undo_sink)
      : table_(table),
        txn_(txn),
        log_(log),
        owner_uid_(owner_uid),
        undo_sink_(undo_sink) {}

  Status Read(Slice key, std::string* payload) override;
  Status Insert(Slice key, Slice payload) override;
  Status Update(Slice key, Slice payload) override;
  Status Delete(Slice key) override;
  Status ScanRange(Slice start, Slice end,
                   const std::function<bool(Slice, Slice)>& fn) override;

  Transaction* txn() override { return txn_; }
  Table* table() { return table_; }

 protected:
  /// Logical concurrency control hook; default is lock-free (partitioned).
  virtual Status LockRecord(Slice key, LockMode mode) {
    (void)key;
    (void)mode;
    return Status::OK();
  }

  /// Places a new record according to the table's heap discipline.
  /// `logged` runs inside the heap op while the page is pinned+held
  /// (latch-coupled logging).
  Status PlaceRecord(Slice key, Slice payload, Rid* rid,
                     const HeapFile::MutationHook& logged);

  /// Clustered-table variants: the payload lives in the index leaf, no
  /// heap file involved (Appendix C.2).
  Status InsertClustered(Slice key, Slice payload);
  Status UpdateClustered(Slice key, Slice payload);
  Status DeleteClustered(Slice key);

  /// Appends a heap WAL record and stamps `page` while the caller still
  /// holds it exclusively (invoked from a HeapFile::MutationHook, which
  /// closes the modify->log window against eviction steals).
  void LogHeapOpOnPage(LogType type, Page* page, Rid rid, Slice redo,
                       Slice undo);
  /// Builds a MutationHook that logs `type` with the given images.
  HeapFile::MutationHook HeapLogHook(LogType type, Slice redo, Slice undo);

  void AddUndo(std::function<Status()> fn) {
    if (undo_sink_ != nullptr) undo_sink_->push_back(std::move(fn));
  }

  Table* table_;
  Transaction* txn_;
  LogManager* log_;
  std::uint32_t owner_uid_;
  std::vector<std::function<Status()>>* undo_sink_;
};

/// Conventional context: record locks through the central lock manager,
/// released at commit/abort (strict 2PL). Lock waits that time out abort
/// the transaction (deadlock resolution).
class LockingExecContext : public BaseExecContext {
 public:
  LockingExecContext(Table* table, Transaction* txn, LogManager* log,
                     LockManager* locks,
                     std::vector<std::function<Status()>>* undo_sink)
      : BaseExecContext(table, txn, log, /*owner_uid=*/UINT32_MAX, undo_sink),
        locks_(locks) {}

 protected:
  Status LockRecord(Slice key, LockMode mode) override {
    const std::string name = RecordLockName(table_->id(), key.ToString());
    Status st = locks_->Acquire(txn_->id(), name, mode);
    if (st.ok()) txn_->held_locks().push_back(name);
    if (st.IsTimedOut()) return Status::Aborted("deadlock victim: " + name);
    return st;
  }

 private:
  LockManager* locks_;
};

}  // namespace plp

#endif  // PLP_ENGINE_RECORD_OPS_H_

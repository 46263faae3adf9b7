// Transaction object: state, held locks, undo chain.
#ifndef PLP_TXN_TRANSACTION_H_
#define PLP_TXN_TRANSACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace plp {

enum class TxnState { kActive, kCommitted, kAborted };

const char* TxnStateName(TxnState s);

/// A transaction. Not thread-safe: exactly one thread drives a transaction
/// at a time (in the partitioned designs, ownership passes between
/// partition workers via the action flow graph, never concurrently).
class Transaction {
 public:
  explicit Transaction(TxnId id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  void set_state(TxnState s) { state_ = s; }

  /// LSN of the begin record — the undo low-water mark a fuzzy checkpoint
  /// stores for active transactions.
  Lsn begin_lsn() const { return begin_lsn_; }
  void set_begin_lsn(Lsn lsn) { begin_lsn_ = lsn; }

  /// Locks to release at commit/abort (conventional engine only; the
  /// partitioned designs use thread-local lock state instead).
  std::vector<std::string>& held_locks() { return held_locks_; }

  /// Registers a compensation action; Abort runs them newest-first.
  void AddUndo(std::function<Status()> undo) {
    undo_actions_.push_back(std::move(undo));
  }

  /// Runs and clears the undo chain (newest-first).
  Status RunUndo();

  std::size_t undo_size() const { return undo_actions_.size(); }

 private:
  const TxnId id_;
  TxnState state_ = TxnState::kActive;
  Lsn begin_lsn_ = kInvalidLsn;
  std::vector<std::string> held_locks_;
  std::vector<std::function<Status()>> undo_actions_;
};

}  // namespace plp

#endif  // PLP_TXN_TRANSACTION_H_

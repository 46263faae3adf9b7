// Database catalog: tables (heap file + primary MRBTree + optional
// secondary indexes) plus the shared storage-manager services.
//
// Two modes:
//  * In-memory (default): the paper's evaluation setup — no files, the
//    log is discarded, frames never evict, and nothing is recoverable.
//  * Durable (`DatabaseConfig::data_dir` set): a data file, a segmented
//    on-disk WAL, a catalog file, and a checkpoint master record live
//    under the directory. Construction replays the catalog and runs
//    checkpoint-based restart recovery; Close() (or Checkpoint()) makes
//    the current state durable. Destroying a durable Database *without*
//    calling Close() models a crash — the next open recovers from the
//    data file + WAL.
#ifndef PLP_ENGINE_DATABASE_H_
#define PLP_ENGINE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/index/btree.h"
#include "src/index/mrbtree.h"
#include "src/index/persistent/index_log.h"
#include "src/io/disk_manager.h"
#include "src/lock/lock_manager.h"
#include "src/log/log_manager.h"
#include "src/metrics/registry.h"
#include "src/storage/heap_file.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"
#include "src/txn/recovery.h"
#include "src/txn/txn_manager.h"

namespace plp {

struct TableConfig {
  std::string name;
  /// Latching discipline for the primary index pages.
  LatchPolicy index_policy = LatchPolicy::kLatched;
  /// Heap page ownership discipline (Section 3.3).
  HeapMode heap_mode = HeapMode::kShared;
  /// MRBTree partition boundaries. {""} gives a single-rooted tree (the
  /// conventional "Normal" index); more entries give a multi-rooted one.
  std::vector<std::string> index_boundaries = {""};
  /// Clustered table: records live in the MRBTree leaves and no heap file
  /// is used (Appendix C.2 — all three PLP variants coincide, and
  /// repartitioning moves only the boundary leaf's records).
  bool clustered = false;
};

/// Extracts a secondary key from a (primary key, payload) pair.
using SecondaryKeyFn = std::function<std::string(Slice key, Slice payload)>;

class Table {
 public:
  /// `log` non-null (durable databases) enables the persistent,
  /// physiologically logged index: the table owns an IndexLogger and its
  /// primary MRBTree logs every page mutation, tagged with the
  /// transaction. `log_creation = false` builds restart placeholders whose
  /// partition layout recovery adopts from the checkpoint/WAL.
  Table(std::uint32_t id, TableConfig config, BufferPool* pool,
        LogManager* log = nullptr, bool log_creation = true);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return config_.name; }
  const TableConfig& config() const { return config_; }

  HeapFile* heap() { return heap_.get(); }
  MRBTree* primary() { return primary_.get(); }

  IndexLogger* index_logger() { return logger_.get(); }

  /// Adds a (non-partition-aligned) secondary index, always accessed with
  /// conventional latching (Appendix E). Maps secondary key -> primary
  /// key. Backfills from existing records, so it may be added after a
  /// reopen (secondary indexes are volatile and rebuilt through this).
  Status AddSecondary(const std::string& name, SecondaryKeyFn key_fn);

  struct Secondary {
    std::string name;
    SecondaryKeyFn key_fn;
    std::unique_ptr<BTree> index;
  };
  Secondary* secondary(const std::string& name);
  std::vector<Secondary*> secondaries();

 private:
  const std::uint32_t id_;
  const TableConfig config_;
  BufferPool* pool_;
  std::unique_ptr<IndexLogger> logger_;
  std::unique_ptr<HeapFile> heap_;
  std::unique_ptr<MRBTree> primary_;
  std::vector<std::unique_ptr<Secondary>> secondaries_;
};

struct DatabaseConfig {
  /// Log settings; the database derives `wal_dir` (from `data_dir`) and
  /// `metrics` itself, so only `segment_size` is the caller's.
  LogConfig log;
  TxnManagerConfig txn;
  /// When non-empty, the database is durable under this directory:
  /// `data.db` (page slots), `wal/` (log segments), `catalog` and
  /// `CHECKPOINT` (master record).
  std::string data_dir;
  /// Buffer-pool frame budget (0 = unlimited / never evict). Meaningful
  /// only with `data_dir`, which provides the backing store to steal to.
  std::size_t frame_budget = 0;
};

/// Bundles the shared-everything storage manager services: one buffer
/// pool, one log, one lock manager, one transaction manager — the "common
/// underlying storage pool and log" PLP retains (Section 6).
class Database {
 public:
  explicit Database(DatabaseConfig config = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Non-OK when a durable open failed (I/O error, corrupt files, failed
  /// recovery). Always OK for in-memory databases.
  const Status& open_status() const { return open_status_; }

  Result<Table*> CreateTable(TableConfig config);
  Table* GetTable(const std::string& name);
  std::vector<Table*> tables();

  /// True when the database lives under a data_dir (data file, WAL,
  /// persistent indexes) and restart recovery applies.
  bool durable() const { return disk_ != nullptr; }

  /// Fuzzy checkpoint: logs the dirty page table + active transactions +
  /// partition tables, forces the record, publishes the master record.
  /// Bounds restart work; does not flush data pages.
  Status Checkpoint();

  /// Clean shutdown: flush the log, write every dirty page back, sync the
  /// data file, take a final checkpoint. Idempotent. NOT called by the
  /// destructor — destroying without Close() models a crash.
  Status Close();

  /// Restart-recovery outcome of a durable open (zeroes otherwise).
  const RecoveryManager::Stats& recovery_stats() const {
    return recovery_stats_;
  }

  BufferPool* pool() { return &pool_; }
  LogManager* log() { return &log_; }
  LockManager* locks() { return &locks_; }
  TxnManager* txns() { return &txns_; }
  DiskManager* disk() { return disk_.get(); }
  /// Registry every storage service records into; Engine::GetStats()
  /// snapshots it. One registry per Database, so concurrent engines (and
  /// tests) never share metric state.
  MetricsRegistry* metrics() { return &metrics_; }

 private:
  Result<Table*> CreateTableInternal(TableConfig config, bool persist);

  Status PersistCatalog();
  Status LoadDurableState();
  std::string master_path() const { return config_.data_dir + "/CHECKPOINT"; }
  std::string catalog_path() const { return config_.data_dir + "/catalog"; }

  DatabaseConfig config_;
  Status open_status_;
  // Declared before every storage service: they cache metric pointers and
  // register gauge providers, so the registry must be the last member
  // destroyed.
  MetricsRegistry metrics_;
  std::unique_ptr<DiskManager> disk_;  // before pool_ (pool caches the ptr)
  BufferPool pool_;
  LogManager log_;
  LockManager locks_;
  TxnManager txns_;

  /// Serializes whole checkpoints. Append -> flush -> master publish ->
  /// WAL truncate must not interleave across callers: a slower checkpoint
  /// could otherwise overwrite the master record with an older LSN after
  /// a faster one has already truncated the segments that older
  /// checkpoint's restart scan would need.
  Mutex checkpoint_mu_;

  TrackedMutex catalog_mu_{CsCategory::kMetadata};
  std::vector<std::unique_ptr<Table>> tables_ PLP_GUARDED_BY(catalog_mu_);
  std::unordered_map<std::string, Table*> by_name_
      PLP_GUARDED_BY(catalog_mu_);

  RecoveryManager::Stats recovery_stats_;

  /// Serializes Close(): exactly one caller runs the flush + final
  /// checkpoint; latecomers wait and then observe closed_. Ordered before
  /// checkpoint_mu_ (Close calls Checkpoint); nothing takes them in
  /// reverse.
  Mutex close_mu_;
  bool closed_ PLP_GUARDED_BY(close_mu_) = false;
  bool restoring_ = false;  // catalog replay in progress (suppress logging)
};

}  // namespace plp

#endif  // PLP_ENGINE_DATABASE_H_

// The log manager: record-level API over the composable LogBuffer, plus an
// offline scan used by restart recovery.
//
// Two backing modes:
//  * in memory (default) — flushed bytes vanish; the memory-resident
//                          benchmark mode of the paper's evaluation. Such
//                          a log cannot be scanned or recovered.
//  * wal_dir set         — flushed bytes go to an on-disk segmented WAL
//                          (src/io/wal_storage). FlushTo() then runs a
//                          group commit: concurrent callers elect one
//                          leader that drains the buffer and issues a
//                          single fdatasync for the whole batch.
#ifndef PLP_LOG_LOG_MANAGER_H_
#define PLP_LOG_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/log/log_buffer.h"
#include "src/log/log_record.h"
#include "src/metrics/registry.h"
#include "src/sync/latch.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class WalStorage;

struct LogConfig {
  /// When non-empty, the log lives in segmented files under this directory
  /// and can be scanned; otherwise flushed bytes are discarded.
  std::string wal_dir;
  std::size_t segment_size = 8u << 20;
  /// Registry for the log.* metrics (appends, bytes, fsync latency, batch
  /// size, truncations); nullptr records into MetricsRegistry::Scratch().
  MetricsRegistry* metrics = nullptr;
};

class LogManager {
 public:
  /// Capacity of the in-memory log ring that appends land in before a
  /// flush drains them.
  static constexpr std::size_t kBufferSize = 16u << 20;

  explicit LogManager(LogConfig config = {});
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Non-OK when the WAL directory could not be opened.
  const Status& open_status() const { return open_status_; }

  /// Appends a record; returns its LSN.
  Lsn Append(const LogRecord& record);

  /// Guarantees durability up to `lsn` (inclusive of that record's bytes).
  /// In wal mode this means the bytes are fdatasync'ed, via group commit.
  void FlushTo(Lsn lsn);
  void FlushAll();

  /// LSN below which every byte is durable (synced in wal mode).
  Lsn durable_lsn() const;
  Lsn next_lsn() const { return buffer_->next_lsn(); }

  bool on_disk() const { return wal_ != nullptr; }
  WalStorage* wal() { return wal_.get(); }

  /// Deletes WAL segments wholly below `floor` (a recovery floor published
  /// by a checkpoint). Returns the number of segments removed; 0 for
  /// in-memory logs.
  std::size_t TruncateWalBelow(Lsn floor);

  /// Scans all records in LSN order. Requires wal mode (NotSupported for
  /// an in-memory log); flushes first.
  Status Scan(const std::function<void(Lsn, const LogRecord&)>& fn) {
    return ScanFrom(0, fn);
  }

  /// Scans records with start LSN >= `from` (which must be a record
  /// boundary — e.g. a checkpoint LSN).
  Status ScanFrom(Lsn from,
                  const std::function<void(Lsn, const LogRecord&)>& fn);

  /// Group-commit observability: total fsyncs vs. flush requests that
  /// piggybacked on another caller's fsync.
  std::uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t flush_requests() const {
    return flush_requests_.load(std::memory_order_relaxed);
  }

 private:
  /// Group-commit leader: drains the ring to the WAL and fsyncs once.
  void SyncWal(Lsn lsn);

  LogConfig config_;
  Status open_status_;
  std::unique_ptr<WalStorage> wal_;
  std::unique_ptr<LogBuffer> buffer_;

  // Group-commit coordinator state.
  Mutex gc_mu_;
  std::condition_variable gc_cv_;
  bool gc_leader_active_ PLP_GUARDED_BY(gc_mu_) = false;
  Lsn gc_synced_lsn_ PLP_GUARDED_BY(gc_mu_) = 0;

  std::atomic<std::uint64_t> sync_count_{0};
  std::atomic<std::uint64_t> flush_requests_{0};

  // Registry metrics (cached pointers; see LogConfig::metrics).
  Counter* appends_metric_ = nullptr;
  Counter* append_bytes_metric_ = nullptr;
  Counter* fsyncs_metric_ = nullptr;
  Counter* truncated_segments_metric_ = nullptr;
  Histogram* fsync_us_metric_ = nullptr;
  Histogram* sync_batch_bytes_metric_ = nullptr;
  /// Highest LSN a sync has covered, for batch-size accounting (distinct
  /// from gc_synced_lsn_, which only FlushTo/FlushAll maintain).
  std::atomic<Lsn> synced_floor_metric_{0};
};

}  // namespace plp

#endif  // PLP_LOG_LOG_MANAGER_H_

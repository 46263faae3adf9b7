#include "src/log/log_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/clock.h"
#include "src/io/wal_storage.h"
#include "src/metrics/flight_recorder.h"

namespace plp {

LogManager::LogManager(LogConfig config) : config_(config) {
  MetricsRegistry* m = config_.metrics != nullptr
                           ? config_.metrics
                           : MetricsRegistry::Scratch();
  appends_metric_ = m->counter("log.appends");
  append_bytes_metric_ = m->counter("log.append_bytes");
  fsyncs_metric_ = m->counter("log.fsyncs");
  truncated_segments_metric_ = m->counter("log.wal_segments_truncated");
  fsync_us_metric_ = m->histogram("log.fsync_us");
  sync_batch_bytes_metric_ = m->histogram("log.sync_batch_bytes");

  Lsn start_lsn = 0;
  LogBuffer::Sink sink;
  if (!config_.wal_dir.empty()) {
    open_status_ =
        WalStorage::Open(config_.wal_dir, config_.segment_size, &wal_);
    if (open_status_.ok()) {
      start_lsn = wal_->end_lsn();
      gc_synced_lsn_ = start_lsn;
      synced_floor_metric_.store(start_lsn, std::memory_order_relaxed);
      WalStorage* wal = wal_.get();
      sink = [wal](const char* data, std::size_t size) {
        // The buffer's flush path is already serialized; surface I/O
        // errors loudly rather than silently dropping log bytes.
        Status st = wal->Append(data, size);
        if (!st.ok()) {
          std::fprintf(stderr, "FATAL: WAL append failed: %s\n",
                       st.ToString().c_str());
          std::abort();
        }
      };
    }
  }
  buffer_ =
      std::make_unique<LogBuffer>(kBufferSize, std::move(sink), start_lsn);
}

LogManager::~LogManager() = default;

Lsn LogManager::Append(const LogRecord& record) {
  std::string bytes = record.Serialize();
  appends_metric_->Increment();
  append_bytes_metric_->Add(bytes.size());
  return buffer_->Append(bytes);
}

Lsn LogManager::durable_lsn() const {
  if (wal_ != nullptr) return wal_->synced_lsn();
  return buffer_->durable_lsn();
}

void LogManager::FlushTo(Lsn lsn) {
  flush_requests_.fetch_add(1, std::memory_order_relaxed);
  if (wal_ == nullptr) {
    buffer_->FlushTo(lsn);
    return;
  }
  // Group commit: one leader drains + fsyncs for every waiter whose target
  // is covered; late arrivals become the next round's leader.
  MutexLock lk(gc_mu_);
  while (gc_synced_lsn_ <= lsn) {
    if (!gc_leader_active_) {
      gc_leader_active_ = true;
      lk.Unlock();
      buffer_->FlushTo(lsn);  // bytes reach the wal file (no fsync yet)
      const Lsn written = buffer_->durable_lsn();
      SyncWal(written);
      lk.Lock();
      gc_synced_lsn_ = std::max(gc_synced_lsn_, written);
      gc_leader_active_ = false;
      gc_cv_.notify_all();
    } else {
      lk.Wait(gc_cv_);
    }
  }
}

void LogManager::SyncWal(Lsn lsn) {
  const std::uint64_t t0 = NowNanos();
  Status st = wal_->Sync();
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL: WAL sync failed: %s\n",
                 st.ToString().c_str());
    std::abort();
  }
  sync_count_.fetch_add(1, std::memory_order_relaxed);
  fsyncs_metric_->Increment();
  fsync_us_metric_->Record((NowNanos() - t0) / 1000);
  // Group-commit batch size: how many new bytes this fsync made durable.
  Lsn prev = synced_floor_metric_.load(std::memory_order_relaxed);
  while (lsn > prev && !synced_floor_metric_.compare_exchange_weak(
                           prev, lsn, std::memory_order_relaxed)) {
  }
  if (lsn > prev) {
    sync_batch_bytes_metric_->Record(lsn - prev);
    FlightRecorder::Emit(TraceEventType::kWalFsync, t0, NowNanos() - t0,
                         lsn - prev, lsn);
  }
}

void LogManager::FlushAll() {
  buffer_->FlushAll();
  if (wal_ != nullptr) {
    SyncWal(buffer_->durable_lsn());
    MutexLock g(gc_mu_);
    gc_synced_lsn_ = std::max(gc_synced_lsn_, buffer_->durable_lsn());
  }
}

Status LogManager::ScanFrom(
    Lsn from, const std::function<void(Lsn, const LogRecord&)>& fn) {
  if (wal_ == nullptr) {
    return Status::NotSupported("in-memory log is not scannable; set wal_dir");
  }
  buffer_->FlushAll();
  return wal_->ScanFrom(from, fn);
}

std::size_t LogManager::TruncateWalBelow(Lsn floor) {
  const std::size_t removed =
      wal_ != nullptr ? wal_->TruncateBelow(floor) : 0;
  if (removed > 0) truncated_segments_metric_->Add(removed);
  return removed;
}

}  // namespace plp

#include "src/engine/database.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "src/common/clock.h"
#include "src/index/btree_node.h"
#include "src/metrics/flight_recorder.h"
#include "src/io/codec.h"
#include "src/storage/slotted_page.h"
#include "src/sync/cs_profiler.h"

namespace plp {

Table::Table(std::uint32_t id, TableConfig config, BufferPool* pool,
             LogManager* log, bool log_creation)
    : id_(id), config_(std::move(config)), pool_(pool) {
  if (log != nullptr) logger_ = std::make_unique<IndexLogger>(log, id_);
  heap_ = std::make_unique<HeapFile>(pool, config_.heap_mode, id_);
  std::unique_ptr<MRBTree> tree;
  Status st = MRBTree::Create(pool, config_.index_policy,
                              config_.index_boundaries, &tree, logger_.get(),
                              log_creation);
  // TableConfig boundaries are validated by CreateTable before we get here.
  (void)st;
  primary_ = std::move(tree);
}

Status Table::AddSecondary(const std::string& name, SecondaryKeyFn key_fn) {
  if (secondary(name) != nullptr) {
    return Status::AlreadyExists("secondary index " + name);
  }
  auto sec = std::make_unique<Secondary>();
  sec->name = name;
  sec->key_fn = std::move(key_fn);
  // Non-partition-aligned secondary indexes are accessed as in the
  // conventional system: latched, single-rooted (Appendix E).
  sec->index = std::make_unique<BTree>(pool_, LatchPolicy::kLatched);

  // Backfill from whatever the table already holds (non-empty after a
  // durable reopen; secondary indexes are not persisted).
  Status backfill = Status::OK();
  (void)primary_->ScanFrom("", [&](Slice key, Slice value) {
    std::string payload;
    if (config_.clustered) {
      payload.assign(value.data(), value.size());
    } else {
      Rid rid;
      std::memcpy(&rid.page_id, value.data(), 4);
      std::memcpy(&rid.slot, value.data() + 4, 2);
      if (!heap_->Get(rid, &payload).ok()) return true;  // dangling: skip
    }
    const std::string skey =
        sec->key_fn(key, payload) + std::string(key.data(), key.size());
    Status st = sec->index->Insert(skey, key);
    if (!st.ok() && !st.IsAlreadyExists()) {
      backfill = st;
      return false;
    }
    return true;
  });
  PLP_RETURN_IF_ERROR(backfill);

  secondaries_.push_back(std::move(sec));
  return Status::OK();
}

Table::Secondary* Table::secondary(const std::string& name) {
  for (auto& sec : secondaries_) {
    if (sec->name == name) return sec.get();
  }
  return nullptr;
}

std::vector<Table::Secondary*> Table::secondaries() {
  std::vector<Secondary*> out;
  out.reserve(secondaries_.size());
  for (auto& sec : secondaries_) out.push_back(sec.get());
  return out;
}

namespace {

std::unique_ptr<DiskManager> OpenDisk(const DatabaseConfig& config,
                                      Status* status) {
  if (config.data_dir.empty()) return nullptr;
  std::error_code ec;
  std::filesystem::create_directories(config.data_dir, ec);
  if (ec) {
    *status = Status::Internal("mkdir " + config.data_dir + ": " +
                               ec.message());
    return nullptr;
  }
  std::unique_ptr<DiskManager> disk;
  Status st = DiskManager::Open(config.data_dir + "/data.db", &disk);
  if (!st.ok()) {
    *status = st;
    return nullptr;
  }
  return disk;
}

LogConfig MakeLogConfig(const DatabaseConfig& config,
                        MetricsRegistry* metrics) {
  LogConfig log = config.log;
  log.wal_dir = config.data_dir.empty() ? "" : config.data_dir + "/wal";
  log.metrics = metrics;
  return log;
}

}  // namespace

Database::Database(DatabaseConfig config)
    : config_(std::move(config)),
      disk_(OpenDisk(config_, &open_status_)),
      pool_([this] {
        BufferPoolConfig pc;
        pc.frame_budget = config_.frame_budget;
        pc.disk = disk_.get();
        pc.metrics = &metrics_;
        if (disk_ != nullptr) {
          // WAL rule for dirty steals; log_ outlives every eviction.
          pc.wal_barrier = [this](Lsn lsn) { log_.FlushTo(lsn); };
        }
        // Every kIndex page in the engine is a BTreeNode, so the node
        // class supplies the pool's cell-rewrite (unswizzle) hooks.
        pc.unswizzle_child = &BTreeNode::UnswizzleChildRef;
        pc.unswizzle_all = &BTreeNode::UnswizzleAll;
        return pc;
      }()),
      log_(MakeLogConfig(config_, &metrics_)),
      locks_(&metrics_),
      txns_(&log_, &locks_, config_.txn, &metrics_) {
  // Post-mortem observability: fatal signals dump the flight-recorder
  // black box before the process dies, and every stats snapshot carries
  // the recorder's drop counter plus the per-site contention ranking (a
  // view over the CsProfiler's collected per-thread counts).
  FlightRecorder::InstallCrashHandlers();
  metrics_.RegisterGaugeProvider(this, [](const GaugeSink& sink) {
    sink("trace.dropped_events", static_cast<std::int64_t>(
                                     FlightRecorder::Global().dropped_events()));
    for (const ContentionEntry& e :
         ContentionSnapshot(CsProfiler::Global().Collect())) {
      const std::string base =
          std::string("contention.") + TraceSiteName(e.site);
      sink(base + ".waits", static_cast<std::int64_t>(e.count));
      sink(base + ".wait_us_total",
           static_cast<std::int64_t>(e.total_wait_ns / 1000));
      sink(base + ".p99_us", static_cast<std::int64_t>(e.p99_us));
    }
  });
  if (!open_status_.ok()) return;
  if (!log_.open_status().ok()) {
    open_status_ = log_.open_status();
    return;
  }
  if (durable()) {
    open_status_ = LoadDurableState();
  }
  if (disk_ != nullptr && open_status_.ok()) {
    // Recovery is complete: freed/reclaimed data-file slots can now be
    // handed out without colliding with ids the WAL tail replays.
    disk_->EnableSlotReuse();
  }
}

Database::~Database() { metrics_.UnregisterGaugeProvider(this); }

Status Database::LoadDurableState() {
  // 0a. Checkpoint master record + image (needed before anything else:
  // the image bounds every restart scan).
  bool has_checkpoint = false;
  Lsn checkpoint_lsn = 0;
  CheckpointImage image;
  {
    Status st = ReadMasterRecord(master_path(), &checkpoint_lsn);
    if (st.ok()) {
      Status decode_status =
          Status::Corruption("no checkpoint record at published LSN");
      PLP_RETURN_IF_ERROR(
          log_.ScanFrom(checkpoint_lsn, [&](Lsn lsn, const LogRecord& rec) {
            if (lsn == checkpoint_lsn && rec.type == LogType::kCheckpoint) {
              decode_status = CheckpointImage::Decode(rec.redo, &image);
            }
          }));
      PLP_RETURN_IF_ERROR(decode_status);
      has_checkpoint = true;
    } else if (!st.IsNotFound()) {
      return st;
    }
  }

  // 0b. Page-id high-water mark. The pool already starts past everything
  // in the data file, but pages that were dirtied and never stolen before
  // the crash exist only in the WAL — fresh allocations (the tables'
  // rebuilt index pages) must not collide with ids recovery will replay.
  // The checkpoint stores the allocator mark, so only the (bounded) tail
  // after its scan horizon needs inspection.
  {
    PageId max_logged =
        has_checkpoint && image.next_page_id > 0 ? image.next_page_id - 1 : 0;
    const Lsn tail_start =
        has_checkpoint ? image.ScanStart(checkpoint_lsn) : 0;
    PLP_RETURN_IF_ERROR(log_.ScanFrom(tail_start, [&](Lsn,
                                                      const LogRecord& rec) {
      if (rec.rid.page_id != kInvalidPageId) {
        max_logged = std::max(max_logged, rec.rid.page_id);
      }
    }));
    pool_.EnsureNextPageIdAtLeast(max_logged + 1);
  }

  // 1. Catalog: recreate tables. Their indexes are placeholders — nothing
  // is logged for them (restoring_) and recovery adopts the real
  // partition layout from the checkpoint image / kPartitionTable records.
  restoring_ = true;
  {
    std::string blob;
    FILE* f = std::fopen(catalog_path().c_str(), "rb");
    if (f != nullptr) {
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) blob.append(buf, n);
      std::fclose(f);

      io::Reader r(blob.data(), blob.size());
      std::uint32_t count;
      if (!r.U32(&count)) return Status::Corruption("catalog header");
      for (std::uint32_t i = 0; i < count; ++i) {
        TableConfig tc;
        std::uint32_t nb;
        std::uint8_t heap_mode, policy, clustered;
        if (!r.Bytes(&tc.name) || !r.U8(&heap_mode) || !r.U8(&policy) ||
            !r.U8(&clustered)) {
          return Status::Corruption("catalog entry " + std::to_string(i));
        }
        if (!r.U32(&nb)) return Status::Corruption("catalog boundaries");
        tc.index_boundaries.clear();
        for (std::uint32_t b = 0; b < nb; ++b) {
          std::string boundary;
          if (!r.Bytes(&boundary)) {
            return Status::Corruption("catalog boundary bytes");
          }
          tc.index_boundaries.push_back(std::move(boundary));
        }
        tc.heap_mode = static_cast<HeapMode>(heap_mode);
        tc.index_policy = static_cast<LatchPolicy>(policy);
        tc.clustered = clustered != 0;
        Result<Table*> r = CreateTableInternal(std::move(tc),
                                               /*persist=*/false);
        if (!r.ok()) return r.status();
      }
    }
  }

  // 2. Heap page lists from the data file's slot headers.
  {
    auto pages = disk_->AllPages();
    std::sort(pages.begin(), pages.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [pid, header] : pages) {
      if (static_cast<PageClass>(header.page_class) != PageClass::kHeap) {
        continue;
      }
      Table* table = nullptr;
      {
        TrackedMutexLock g(catalog_mu_);
        table = header.table_tag < tables_.size()
                    ? tables_[header.table_tag].get()
                    : nullptr;
      }
      if (table != nullptr) {
        table->heap()->AdoptPage(pid, header.owner_tag);
      }
    }
  }

  // 3. Restart recovery (analysis / redo / undo).
  const std::uint64_t recovery_start = NowNanos();
  RecoveryManager rm(&log_, &pool_);
  Status recovered = rm.RecoverDatabase(this, has_checkpoint, checkpoint_lsn,
                                        image, &recovery_stats_);
  restoring_ = false;
  PLP_RETURN_IF_ERROR(recovered);
  metrics_.counter("recovery.runs")->Increment();
  metrics_.counter("recovery.redo_ops")->Add(recovery_stats_.redo_ops);
  metrics_.counter("recovery.undo_ops")->Add(recovery_stats_.undo_ops);
  metrics_.counter("recovery.index_ops")->Add(recovery_stats_.index_ops);
  metrics_.counter("recovery.winners")->Add(recovery_stats_.winners);
  metrics_.counter("recovery.losers")->Add(recovery_stats_.losers);
  metrics_.gauge("recovery.last_duration_us")
      ->Set(static_cast<std::int64_t>((NowNanos() - recovery_start) / 1000));
  {
    TraceSiteScope site(TraceSite::kRecoveryReplay);
    FlightRecorder::Emit(TraceEventType::kRecovery, recovery_start,
                         NowNanos() - recovery_start,
                         recovery_stats_.redo_ops, recovery_stats_.undo_ops);
  }

  // 4. Prime free-space maps for post-restart inserts. (Owned-heap
  // ownership re-tagging happens when the engine attaches the recovered
  // tables — PartitionedEngine::RetagOwnedHeap — since partition uids
  // are an engine concept.)
  {
    TrackedMutexLock g(catalog_mu_);
    for (auto& table : tables_) table->heap()->PrimeFreeSpace();
  }
  return Status::OK();
}

Status Database::PersistCatalog() {
  std::string blob;
  {
    TrackedMutexLock g(catalog_mu_);
    io::PutU32(&blob, static_cast<std::uint32_t>(tables_.size()));
    for (auto& table : tables_) {
      const TableConfig& tc = table->config();
      io::PutBytes(&blob, tc.name);
      blob.push_back(static_cast<char>(tc.heap_mode));
      blob.push_back(static_cast<char>(tc.index_policy));
      blob.push_back(tc.clustered ? 1 : 0);
      io::PutU32(&blob,
                 static_cast<std::uint32_t>(tc.index_boundaries.size()));
      for (const std::string& b : tc.index_boundaries) io::PutBytes(&blob, b);
    }
  }
  // fsync before rename: committed tables must not vanish with the page
  // cache on a power failure while data.db/WAL still reference them.
  return io::AtomicWriteFile(catalog_path(), blob);
}

Result<Table*> Database::CreateTable(TableConfig config) {
  return CreateTableInternal(std::move(config), /*persist=*/durable());
}

Result<Table*> Database::CreateTableInternal(TableConfig config,
                                             bool persist) {
  if (config.name.empty()) {
    return Status::InvalidArgument("table name required");
  }
  if (config.index_boundaries.empty() ||
      !config.index_boundaries.front().empty()) {
    return Status::InvalidArgument(
        "index_boundaries[0] must be the empty (-inf) key");
  }
  Table* raw = nullptr;
  {
    TrackedMutexLock g(catalog_mu_);
    if (by_name_.count(config.name) > 0) {
      return Status::AlreadyExists("table " + config.name);
    }
    const auto id = static_cast<std::uint32_t>(tables_.size());
    auto table = std::make_unique<Table>(
        id, std::move(config), &pool_, durable() ? &log_ : nullptr,
        /*log_creation=*/!restoring_);
    raw = table.get();
    tables_.push_back(std::move(table));
    by_name_.emplace(raw->name(), raw);
  }
  if (persist) {
    // Creation-before-catalog ordering: the table's root images +
    // partition record must be durable before the catalog names the
    // table, or a crash could leave a cataloged table whose partition
    // layout recovery can never adopt.
    log_.FlushAll();
    PLP_RETURN_IF_ERROR(PersistCatalog());
  }
  return raw;
}

Table* Database::GetTable(const std::string& name) {
  TrackedMutexLock g(catalog_mu_);
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<Table*> Database::tables() {
  TrackedMutexLock g(catalog_mu_);
  std::vector<Table*> out;
  out.reserve(tables_.size());
  for (auto& t : tables_) out.push_back(t.get());
  return out;
}

Status Database::Checkpoint() {
  if (!durable()) {
    return Status::NotSupported("checkpoint requires a durable database");
  }
  // One checkpoint at a time: interleaved append/publish/truncate from two
  // callers could publish master records out of order (see checkpoint_mu_).
  MutexLock checkpoint_guard(checkpoint_mu_);
  TraceSiteScope trace_site(TraceSite::kCheckpointer);
  const std::uint64_t checkpoint_start = NowNanos();
  CheckpointImage image;
  // begin_checkpoint first: anything that happens while the tables below
  // are collected (a clean page dirtied, a txn begun) is then covered by
  // the restart scan, which starts no later than this LSN.
  image.begin_lsn = log_.next_lsn();
  image.dirty_pages = pool_.DirtyPageTable();
  image.active_txns = txns_.ActiveSnapshot();
  image.next_txn_id = txns_.peek_next_id();
  image.next_page_id = pool_.peek_next_page_id();

  {
    // The payload records only the tiny partition-table baseline per
    // table — page contents are covered by the dirty page table + WAL, so
    // checkpoint cost is O(dirty + txns), independent of index size, and
    // no quiescing is needed (truly fuzzy).
    TrackedMutexLock g(catalog_mu_);
    for (auto& table : tables_) {
      CheckpointImage::TablePartitions parts;
      parts.table_id = table->id();
      parts.parts = table->primary()->PartitionEntries();
      image.partitions.push_back(std::move(parts));
    }
  }

  LogRecord rec;
  rec.type = LogType::kCheckpoint;
  rec.redo = image.Encode();
  const Lsn lsn = log_.Append(rec);
  log_.FlushTo(lsn);
  PLP_RETURN_IF_ERROR(WriteMasterRecord(master_path(), lsn));
  // With the master record published, no future restart reads below this
  // checkpoint's recovery floor: reclaim the log segments wholly under it.
  log_.TruncateWalBelow(image.ScanStart(lsn));
  metrics_.counter("checkpoint.count")->Increment();
  metrics_.counter("checkpoint.payload_bytes")->Add(rec.redo.size());
  metrics_.histogram("checkpoint.duration_us")
      ->Record((NowNanos() - checkpoint_start) / 1000);
  FlightRecorder::Emit(TraceEventType::kCheckpoint, checkpoint_start,
                       NowNanos() - checkpoint_start, rec.redo.size(), 0);
  return Status::OK();
}

Status Database::Close() {
  if (!durable()) return Status::OK();
  // One closer runs the shutdown sequence; concurrent latecomers block
  // here and then observe closed_ instead of re-running the flush and
  // final checkpoint (unguarded, two racing closers both saw false).
  MutexLock close_guard(close_mu_);
  if (closed_) return Status::OK();
  log_.FlushAll();
  PLP_RETURN_IF_ERROR(pool_.FlushAllDirty(LatchPolicy::kNone));
  PLP_RETURN_IF_ERROR(disk_->Sync());
  PLP_RETURN_IF_ERROR(Checkpoint());
  closed_ = true;
  return Status::OK();
}

}  // namespace plp

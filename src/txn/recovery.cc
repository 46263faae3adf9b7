#include "src/txn/recovery.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/engine/database.h"
#include "src/index/persistent/index_log.h"
#include "src/storage/slotted_page.h"

namespace plp {

namespace {

/// Formats a freshly-materialized (zeroed) frame exactly once.
void EnsureFormatted(Page* page) {
  SlottedPage sp(page->data());
  if (sp.slot_count() == 0 && sp.ContiguousFreeSpace() == 0) {
    SlottedPage::Init(page->data());
  }
}

/// ARIES redo gate: apply `lsn` unless the page already reflects it.
/// page_lsn 0 doubles as "never stamped" (a fresh or zeroed frame), so the
/// log's first record — LSN 0 — still replays onto such a page; applying
/// it again to a page whose only update it is, is idempotent.
bool NeedsRedo(const Page* page, Lsn lsn) {
  return lsn > page->page_lsn() || page->page_lsn() == 0;
}

}  // namespace

Status RecoveryManager::RecoverDatabase(Database* db, bool has_checkpoint,
                                        Lsn checkpoint_lsn,
                                        const CheckpointImage& image,
                                        Stats* stats) {
  Stats local;

  std::unordered_map<std::uint32_t, Table*> tables_by_id;
  for (Table* t : db->tables()) tables_by_id[t->id()] = t;

  // The checkpoint carries only the partition-table baseline; page
  // contents replay physically below. Newer kPartitionTable records seen
  // during redo re-adopt.
  for (const CheckpointImage::TablePartitions& parts : image.partitions) {
    auto it = tables_by_id.find(parts.table_id);
    if (it == tables_by_id.end()) continue;
    PLP_RETURN_IF_ERROR(it->second->primary()->AdoptPartitions(parts.parts));
  }

  const Lsn scan_start =
      has_checkpoint ? image.ScanStart(checkpoint_lsn) : 0;
  local.scan_start = scan_start;

  // Pass 1: analysis over [scan_start, end). Transactions active at the
  // checkpoint are in-flight by definition; records tell us who finished.
  // System records (txn == kInvalidTxnId: SMOs, partition tables, logged
  // heap moves, compensations) are repeat-history-only — never losers.
  std::unordered_set<TxnId> committed;
  std::unordered_set<TxnId> seen;
  TxnId max_txn_id = 0;
  for (const auto& [txn, begin] : image.active_txns) seen.insert(txn);
  PLP_RETURN_IF_ERROR(log_->ScanFrom(scan_start, [&](Lsn,
                                                     const LogRecord& rec) {
    if (rec.type == LogType::kCheckpoint || rec.txn == kInvalidTxnId) return;
    seen.insert(rec.txn);
    max_txn_id = std::max(max_txn_id, rec.txn);
    if (rec.type == LogType::kCommit) committed.insert(rec.txn);
  }));
  local.winners = committed.size();
  local.losers = seen.size() - committed.size();

  auto is_winner_or_system = [&](TxnId txn) {
    return txn == kInvalidTxnId || committed.count(txn) > 0;
  };

  // Pass 2: redo. Index-page history is repeated for every transaction,
  // heap history for winners and system records (page-LSN-gated, so
  // replay against whatever state the data file holds is idempotent).
  // Loser bookkeeping feeds the undo passes below.
  struct LoserHeapOp {
    LogType type;
    Rid rid;
    Lsn lsn;
    std::uint32_t table;
    std::string undo;
  };
  struct LoserIndexOp {
    LogType type;
    Lsn lsn;
    std::uint32_t table;
    std::string payload;  // EncodeIndexEntry(key, value-for-undo)
  };
  std::vector<LoserHeapOp> loser_heap;
  std::vector<LoserIndexOp> loser_anchors;
  std::unordered_map<Rid, Lsn> last_committed;
  // Key-level precedence for index undo: the newest op on a
  // (table, key) by a winner or a system/compensation record wins over an
  // older loser op.
  std::unordered_map<std::string, Lsn> index_key_winner;
  auto index_key = [](std::uint32_t table, const std::string& key) {
    std::string k(reinterpret_cast<const char*>(&table), 4);
    k += key;
    return k;
  };

  auto heap_page = [&](const LogRecord& rec) {
    const PageId pid = rec.rid.page_id;
    Page* page = pool_->Fix(pid);  // resident or on disk
    if (page == nullptr) {
      page = pool_->NewPageWithId(pid, PageClass::kHeap);
      page->set_table_tag(rec.table);
    }
    EnsureFormatted(page);
    auto it = tables_by_id.find(rec.table);
    if (it != tables_by_id.end()) {
      it->second->heap()->AdoptPage(pid, SlottedPage(page->data()).owner());
    }
    return page;
  };

  auto index_page = [&](PageId pid) {
    Page* page = pool_->Fix(pid);  // resident or on disk
    if (page == nullptr) {
      page = pool_->NewPageWithId(pid, PageClass::kIndex);
    }
    EnsureNodeFormatted(page->data());
    return page;
  };

  Status replay_status = Status::OK();
  PLP_RETURN_IF_ERROR(log_->ScanFrom(scan_start, [&](Lsn lsn,
                                                     const LogRecord& rec) {
    if (!replay_status.ok()) return;
    switch (rec.type) {
      case LogType::kHeapInsert:
      case LogType::kHeapUpdate:
      case LogType::kHeapDelete: {
        if (!is_winner_or_system(rec.txn)) {
          // Loser heap ops are NOT redone: heap replay is slot-addressed
          // and value-based, so skipping them leaves each slot with its
          // winner value directly (the undo images below cover delete/
          // update restores). Redoing them would transiently overcommit
          // pages — at runtime the space they held was returned by
          // unlogged abort compensations mid-stream, which replay cannot
          // interleave — and a committed record's PutAt could then fail.
          loser_heap.push_back({rec.type, rec.rid, lsn, rec.table, rec.undo});
          break;
        }
        Page* page = heap_page(rec);
        // ARIES redo gate: a page stolen after this record already holds
        // its effect (page_lsn from the slot header covers it); replaying
        // anyway is not just wasted work — an old large record may no
        // longer fit the newer image and would abort recovery.
        if (NeedsRedo(page, lsn)) {
          SlottedPage sp(page->data());
          if (rec.type == LogType::kHeapDelete) {
            (void)sp.Delete(rec.rid.slot);
          } else {
            replay_status = sp.PutAt(rec.rid.slot, rec.redo);
          }
          page->StampUpdate(lsn);
          local.redo_ops++;
        }
        last_committed[rec.rid] = lsn;
        break;
      }
      case LogType::kIndexLeafInsert:
      case LogType::kIndexLeafDelete:
      case LogType::kIndexLeafUpdate: {
        std::string key, value;
        const std::string& payload =
            rec.type == LogType::kIndexLeafDelete ? rec.undo : rec.redo;
        DecodeIndexEntry(payload, &key, &value);
        Page* page = index_page(rec.rid.page_id);
        if (NeedsRedo(page, lsn)) {
          if (rec.type == LogType::kIndexLeafInsert) {
            RedoLeafInsert(page->data(), key, value);
          } else if (rec.type == LogType::kIndexLeafDelete) {
            RedoLeafDelete(page->data(), key);
          } else {
            RedoLeafUpdate(page->data(), key, value);
          }
          page->StampUpdate(lsn);
          local.index_ops++;
        }
        if (is_winner_or_system(rec.txn)) {
          // A SYSTEM leaf UPDATE is a re-point (leaf-moved hook,
          // repartitioning): the key's existence is still owed to
          // whoever inserted it, so it must not shield a loser's insert
          // from being undone. Committed updates and all inserts/deletes
          // do take precedence over older loser ops.
          if (rec.type != LogType::kIndexLeafUpdate ||
              rec.txn != kInvalidTxnId) {
            index_key_winner[index_key(rec.table, key)] = lsn;
          }
        } else {
          // Undo needs the before-image: the deleted/overwritten value
          // for delete/update, the key alone for insert.
          loser_anchors.push_back(
              {rec.type, lsn, rec.table,
               rec.type == LogType::kIndexLeafInsert ? rec.redo : rec.undo});
        }
        break;
      }
      case LogType::kIndexSmo: {
        std::vector<std::pair<PageId, std::string>> images;
        if (!DecodeSmoPayload(rec.redo, &images)) {
          replay_status = Status::Corruption("bad SMO payload");
          break;
        }
        for (const auto& [pid, img] : images) {
          Page* page = index_page(pid);
          if (NeedsRedo(page, lsn)) {
            if (!ApplyNodeImage(img, page->data())) {
              replay_status = Status::Corruption("bad SMO page image");
              break;
            }
            page->StampUpdate(lsn);
            local.index_ops++;
          }
        }
        break;
      }
      case LogType::kIndexPageFree: {
        pool_->FreePage(rec.rid.page_id);
        break;
      }
      case LogType::kPartitionTable: {
        auto it = tables_by_id.find(rec.table);
        if (it == tables_by_id.end()) break;
        std::vector<std::pair<std::string, PageId>> parts;
        if (!DecodePartitionPayload(rec.redo, &parts)) {
          replay_status = Status::Corruption("bad partition-table payload");
          break;
        }
        replay_status = it->second->primary()->AdoptPartitions(parts);
        break;
      }
      case LogType::kIndexRepartition: {
        // Atomic slice/meld: SMO page images + the new partition table in
        // one record (either the whole repartition replays or none of it).
        std::vector<std::pair<std::string, PageId>> parts;
        std::vector<std::pair<PageId, std::string>> images;
        if (!DecodeRepartitionPayload(rec.redo, &parts, &images)) {
          replay_status = Status::Corruption("bad repartition payload");
          break;
        }
        for (const auto& [pid, img] : images) {
          Page* page = index_page(pid);
          if (NeedsRedo(page, lsn)) {
            if (!ApplyNodeImage(img, page->data())) {
              replay_status = Status::Corruption("bad repartition image");
              break;
            }
            page->StampUpdate(lsn);
            local.index_ops++;
          }
        }
        if (!replay_status.ok()) break;
        auto it = tables_by_id.find(rec.table);
        if (it == tables_by_id.end()) break;
        replay_status = it->second->primary()->AdoptPartitions(parts);
        break;
      }
      default:
        break;
    }
  }));
  PLP_RETURN_IF_ERROR(replay_status);

  // Pass 3a: compensate loser leaf ops logically through the recovered
  // trees, newest-first. The compensations go through the normal mutation
  // paths, so they are themselves logged (as system records) and survive
  // a crash during recovery. A later op on the same key by a winner or a
  // system record takes precedence.
  for (auto it = loser_anchors.rbegin(); it != loser_anchors.rend(); ++it) {
    auto table_it = tables_by_id.find(it->table);
    if (table_it == tables_by_id.end()) continue;
    std::string key, value;
    DecodeIndexEntry(it->payload, &key, &value);
    auto winner = index_key_winner.find(index_key(it->table, key));
    if (winner != index_key_winner.end() && winner->second > it->lsn) {
      continue;
    }
    MRBTree* primary = table_it->second->primary();
    switch (it->type) {
      case LogType::kIndexLeafInsert:
        (void)primary->Delete(key);  // NotFound: compensated pre-crash
        break;
      case LogType::kIndexLeafDelete: {
        Status st = primary->Insert(key, value);
        (void)st;  // AlreadyExists: a later insert owns the key now
        break;
      }
      case LogType::kIndexLeafUpdate:
        (void)primary->Update(key, value);  // NotFound: deleted later
        break;
      default:
        break;
    }
    local.undo_ops++;
  }

  // Pass 3b: undo loser heap ops newest-first from before-images; a later
  // committed write to the same RID wins. Each undo is logged as a CLR —
  // a SYSTEM heap record (txn = kInvalidTxnId) whose redo image IS the
  // compensation — and the page LSN advances to it, so the undo replays
  // from the log like any other history: a crash mid-undo resumes from
  // the CLR chain, and a crash after recovery redoes (or LSN-skips) them
  // idempotently. No flush-before-open of undone pages is needed.
  for (auto it = loser_heap.rbegin(); it != loser_heap.rend(); ++it) {
    auto committed_it = last_committed.find(it->rid);
    if (committed_it != last_committed.end() &&
        committed_it->second > it->lsn) {
      continue;
    }
    Page* page = pool_->Fix(it->rid.page_id);
    if (page == nullptr) continue;  // never materialized: nothing to undo
    SlottedPage sp(page->data());
    LogRecord clr;
    clr.txn = kInvalidTxnId;
    clr.rid = it->rid;
    clr.table = it->table;
    switch (it->type) {
      case LogType::kHeapInsert:
        (void)sp.Delete(it->rid.slot);
        clr.type = LogType::kHeapDelete;
        break;
      case LogType::kHeapUpdate:
      case LogType::kHeapDelete:
        PLP_RETURN_IF_ERROR(sp.PutAt(it->rid.slot, it->undo));
        clr.type = LogType::kHeapUpdate;
        clr.redo = it->undo;
        break;
      default:
        continue;
    }
    page->StampUpdate(log_->Append(clr));
    local.undo_ops++;
  }

  // Adopted sub-trees learned their entry populations from pages only.
  for (auto& [id, table] : tables_by_id) table->primary()->RecountEntries();

  db->txns()->EnsureNextIdAtLeast(
      std::max(image.next_txn_id, max_txn_id + 1));

  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace plp

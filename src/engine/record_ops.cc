#include "src/engine/record_ops.h"

#include <cstring>

namespace plp {

std::string RidToBytes(Rid rid) {
  std::string out(6, '\0');
  std::memcpy(out.data(), &rid.page_id, 4);
  std::memcpy(out.data() + 4, &rid.slot, 2);
  return out;
}

Rid RidFromBytes(Slice bytes) {
  Rid rid;
  std::memcpy(&rid.page_id, bytes.data(), 4);
  std::memcpy(&rid.slot, bytes.data() + 4, 2);
  return rid;
}

HeapFile::MutationHook SystemHeapLogHook(LogManager* log,
                                         std::uint32_t table_id,
                                         LogType type, std::string image) {
  if (log == nullptr) return {};
  return [log, table_id, type, image = std::move(image)](Page* page,
                                                         SlotId slot) {
    LogRecord rec;
    rec.type = type;
    rec.txn = kInvalidTxnId;  // system record: repeat-history, never undone
    rec.rid = Rid{page->id(), slot};
    rec.table = table_id;
    if (type == LogType::kHeapInsert || type == LogType::kHeapUpdate) {
      rec.redo = image;
    } else {
      rec.undo = image;
    }
    page->StampUpdate(log->Append(rec));
  };
}

void BaseExecContext::LogHeapOpOnPage(LogType type, Page* page, Rid rid,
                                      Slice redo, Slice undo) {
  LogRecord rec;
  rec.type = type;
  rec.txn = txn_->id();
  rec.rid = rid;
  rec.table = table_->id();
  rec.redo.assign(redo.data(), redo.size());
  rec.undo.assign(undo.data(), undo.size());
  const Lsn lsn = log_->Append(rec);
  // WAL bookkeeping on the frame: page_lsn drives the steal barrier,
  // rec_lsn the fuzzy checkpoint's dirty page table. The caller (a
  // HeapFile mutation hook) still pins and exclusively holds the page, so
  // no eviction can steal the modified-but-unstamped frame.
  page->StampUpdate(lsn);
}

HeapFile::MutationHook BaseExecContext::HeapLogHook(LogType type, Slice redo,
                                                    Slice undo) {
  return [this, type, redo, undo](Page* page, SlotId slot) {
    LogHeapOpOnPage(type, page, Rid{page->id(), slot}, redo, undo);
  };
}

Status BaseExecContext::PlaceRecord(Slice key, Slice payload, Rid* rid,
                                    const HeapFile::MutationHook& logged) {
  HeapFile* heap = table_->heap();
  switch (heap->mode()) {
    case HeapMode::kShared:
      return heap->Insert(payload, rid, logged);
    case HeapMode::kPartitionOwned:
      return heap->InsertOwned(owner_uid_, payload, rid, logged);
    case HeapMode::kLeafOwned: {
      // The record lands on a page owned by the leaf that will hold its
      // index entry; the storage layer is partition-unaware, so this is
      // the callback into the metadata layer the paper describes (§3.3).
      MRBTree* primary = table_->primary();
      BTree* sub = primary->subtree(primary->PartitionFor(key));
      return heap->InsertOwned(sub->LeafFor(key), payload, rid, logged);
    }
  }
  return Status::Internal("unknown heap mode");
}

Status BaseExecContext::Read(Slice key, std::string* payload) {
  PLP_RETURN_IF_ERROR(LockRecord(key, LockMode::kS));
  if (table_->config().clustered) {
    return table_->primary()->Probe(key, payload);
  }
  std::string rid_bytes;
  PLP_RETURN_IF_ERROR(table_->primary()->Probe(key, &rid_bytes));
  return table_->heap()->Get(RidFromBytes(rid_bytes), payload);
}

Status BaseExecContext::InsertClustered(Slice key, Slice payload) {
  PLP_RETURN_IF_ERROR(table_->primary()->Insert(key, payload, txn_->id()));
  for (Table::Secondary* sec : table_->secondaries()) {
    const std::string skey = sec->key_fn(key, payload) + key.ToString();
    PLP_RETURN_IF_ERROR(sec->index->Insert(skey, key));
  }
  Table* table = table_;
  const std::string key_copy = key.ToString();
  const std::string payload_copy = payload.ToString();
  AddUndo([table, key_copy, payload_copy]() {
    PLP_RETURN_IF_ERROR(table->primary()->Delete(key_copy));
    for (Table::Secondary* sec : table->secondaries()) {
      (void)sec->index->Delete(sec->key_fn(key_copy, payload_copy) +
                               key_copy);
    }
    return Status::OK();
  });
  return Status::OK();
}

Status BaseExecContext::UpdateClustered(Slice key, Slice payload) {
  std::string before;
  PLP_RETURN_IF_ERROR(table_->primary()->Probe(key, &before));
  PLP_RETURN_IF_ERROR(table_->primary()->Update(key, payload, txn_->id()));
  for (Table::Secondary* sec : table_->secondaries()) {
    const std::string old_skey = sec->key_fn(key, before) + key.ToString();
    const std::string new_skey = sec->key_fn(key, payload) + key.ToString();
    if (old_skey != new_skey) {
      (void)sec->index->Delete(old_skey);
      PLP_RETURN_IF_ERROR(sec->index->Insert(new_skey, key));
    }
  }
  Table* table = table_;
  const std::string key_copy = key.ToString();
  const std::string before_copy = before;
  AddUndo([table, key_copy, before_copy]() {
    return table->primary()->Update(key_copy, before_copy);
  });
  return Status::OK();
}

Status BaseExecContext::DeleteClustered(Slice key) {
  std::string before;
  PLP_RETURN_IF_ERROR(table_->primary()->Probe(key, &before));
  PLP_RETURN_IF_ERROR(table_->primary()->Delete(key, txn_->id()));
  for (Table::Secondary* sec : table_->secondaries()) {
    (void)sec->index->Delete(sec->key_fn(key, before) + key.ToString());
  }
  Table* table = table_;
  const std::string key_copy = key.ToString();
  const std::string before_copy = before;
  AddUndo([table, key_copy, before_copy]() {
    return table->primary()->Insert(key_copy, before_copy);
  });
  return Status::OK();
}

Status BaseExecContext::Insert(Slice key, Slice payload) {
  PLP_RETURN_IF_ERROR(LockRecord(key, LockMode::kX));
  if (table_->config().clustered) return InsertClustered(key, payload);
  Rid rid;
  PLP_RETURN_IF_ERROR(PlaceRecord(
      key, payload, &rid, HeapLogHook(LogType::kHeapInsert, payload, Slice())));

  const std::string rid_bytes = RidToBytes(rid);
  Status st = table_->primary()->Insert(key, rid_bytes, txn_->id());
  if (!st.ok()) {
    // Roll the heap placement back immediately; the key already exists.
    (void)table_->heap()->Delete(
        rid, HeapLogHook(LogType::kHeapDelete, Slice(), payload));
    return st;
  }

  // Secondary index maintenance (conventional access, Appendix E).
  for (Table::Secondary* sec : table_->secondaries()) {
    const std::string skey = sec->key_fn(key, payload) + key.ToString();
    PLP_RETURN_IF_ERROR(sec->index->Insert(skey, key));
  }

  Table* table = table_;
  LogManager* log = log_;
  const std::string key_copy = key.ToString();
  const std::string payload_copy = payload.ToString();
  AddUndo([table, log, key_copy, payload_copy]() {
    std::string rb;
    PLP_RETURN_IF_ERROR(table->primary()->Probe(key_copy, &rb));
    // Compensations are logged as SYSTEM records: an unlogged page change
    // on a clean frame leaves no rec_lsn trace, so a later logged op
    // would pin the dirty interval past the loser's records and the next
    // checkpoint's scan window could miss them — resurrecting the
    // aborted effect from a mid-transaction page steal after a crash.
    PLP_RETURN_IF_ERROR(table->heap()->Delete(
        RidFromBytes(rb),
        SystemHeapLogHook(log, table->id(), LogType::kHeapDelete,
                          payload_copy)));
    PLP_RETURN_IF_ERROR(table->primary()->Delete(key_copy));
    for (Table::Secondary* sec : table->secondaries()) {
      (void)sec->index->Delete(sec->key_fn(key_copy, payload_copy) +
                               key_copy);
    }
    return Status::OK();
  });
  return Status::OK();
}

Status BaseExecContext::Update(Slice key, Slice payload) {
  PLP_RETURN_IF_ERROR(LockRecord(key, LockMode::kX));
  if (table_->config().clustered) return UpdateClustered(key, payload);
  std::string rid_bytes;
  PLP_RETURN_IF_ERROR(table_->primary()->Probe(key, &rid_bytes));
  const Rid rid = RidFromBytes(rid_bytes);

  std::string before;
  PLP_RETURN_IF_ERROR(table_->heap()->Get(rid, &before));
  PLP_RETURN_IF_ERROR(table_->heap()->Update(
      rid, payload, HeapLogHook(LogType::kHeapUpdate, payload, before)));

  for (Table::Secondary* sec : table_->secondaries()) {
    const std::string old_skey = sec->key_fn(key, before) + key.ToString();
    const std::string new_skey = sec->key_fn(key, payload) + key.ToString();
    if (old_skey != new_skey) {
      (void)sec->index->Delete(old_skey);
      PLP_RETURN_IF_ERROR(sec->index->Insert(new_skey, key));
    }
  }

  Table* table = table_;
  LogManager* log = log_;
  const std::string key_copy = key.ToString();
  const std::string before_copy = before;
  const std::uint32_t owner = owner_uid_;
  AddUndo([table, log, key_copy, before_copy, owner]() {
    // The record may have moved since the update (a leaf split's
    // copy->re-point->release can relocate it before this compensation
    // runs), so resolve the CURRENT rid through the index rather than
    // trusting the one captured at update time.
    std::string rb;
    PLP_RETURN_IF_ERROR(table->primary()->Probe(key_copy, &rb));
    const Rid rid = RidFromBytes(rb);
    // Logged system compensation (see the insert-undo comment above).
    Status st = table->heap()->Update(
        rid, before_copy,
        SystemHeapLogHook(log, table->id(), LogType::kHeapUpdate,
                          before_copy));
    if (!st.IsNoSpace()) return st;
    // The page is too full to grow the before-image back in place (other
    // records claimed the freed space). Relocate: free the slot, place
    // the before-image wherever it fits, and re-point the index entry.
    HeapFile* heap = table->heap();
    PLP_RETURN_IF_ERROR(heap->Delete(
        rid, SystemHeapLogHook(log, table->id(), LogType::kHeapDelete,
                               std::string())));
    std::uint32_t restore_owner = owner;
    if (heap->mode() == HeapMode::kLeafOwned) {
      MRBTree* primary = table->primary();
      BTree* sub = primary->subtree(primary->PartitionFor(key_copy));
      restore_owner = sub->LeafFor(key_copy);
    }
    Rid new_rid;
    PLP_RETURN_IF_ERROR(heap->RestoreAt(
        rid, restore_owner, before_copy, &new_rid,
        SystemHeapLogHook(log, table->id(), LogType::kHeapInsert,
                          before_copy)));
    if (!(new_rid == rid)) {
      PLP_RETURN_IF_ERROR(
          table->primary()->Update(key_copy, RidToBytes(new_rid)));
    }
    return Status::OK();
  });
  return Status::OK();
}

Status BaseExecContext::Delete(Slice key) {
  PLP_RETURN_IF_ERROR(LockRecord(key, LockMode::kX));
  if (table_->config().clustered) return DeleteClustered(key);
  std::string rid_bytes;
  PLP_RETURN_IF_ERROR(table_->primary()->Probe(key, &rid_bytes));
  const Rid rid = RidFromBytes(rid_bytes);

  std::string before;
  PLP_RETURN_IF_ERROR(table_->heap()->Get(rid, &before));
  PLP_RETURN_IF_ERROR(table_->heap()->Delete(
      rid, HeapLogHook(LogType::kHeapDelete, Slice(), before)));
  PLP_RETURN_IF_ERROR(table_->primary()->Delete(key, txn_->id()));

  for (Table::Secondary* sec : table_->secondaries()) {
    (void)sec->index->Delete(sec->key_fn(key, before) + key.ToString());
  }

  Table* table = table_;
  LogManager* log = log_;
  const std::string key_copy = key.ToString();
  const std::string before_copy = before;
  const std::uint32_t owner = owner_uid_;
  AddUndo([table, log, key_copy, before_copy, owner, rid]() {
    // Logical undo at the original RID whenever the slot is still free
    // (falling back to a fresh placement when it was reused); the
    // restore is logged below as a system record either way.
    HeapFile* heap = table->heap();
    std::uint32_t restore_owner = owner;
    if (heap->mode() == HeapMode::kLeafOwned) {
      MRBTree* primary = table->primary();
      BTree* sub = primary->subtree(primary->PartitionFor(key_copy));
      restore_owner = sub->LeafFor(key_copy);
    }
    Rid new_rid;
    // The restore is logged as a SYSTEM record: the fallback path places
    // the record at a RID the value-based undo of restart recovery could
    // never reproduce, while the index re-point below IS logged — an
    // unlogged restore would leave this committed key dangling after a
    // crash (found by the SMO crash-loop fuzz).
    PLP_RETURN_IF_ERROR(heap->RestoreAt(
        rid, restore_owner, before_copy, &new_rid,
        SystemHeapLogHook(log, table->id(), LogType::kHeapInsert,
                          before_copy)));
    PLP_RETURN_IF_ERROR(
        table->primary()->Insert(key_copy, RidToBytes(new_rid)));
    for (Table::Secondary* sec : table->secondaries()) {
      (void)sec->index->Insert(
          sec->key_fn(key_copy, before_copy) + key_copy, key_copy);
    }
    return Status::OK();
  });
  return Status::OK();
}

Status BaseExecContext::ScanRange(Slice start, Slice end,
                                  const std::function<bool(Slice, Slice)>& fn) {
  Status inner = Status::OK();
  const bool clustered = table_->config().clustered;
  PLP_RETURN_IF_ERROR(
      table_->primary()->ScanFrom(start, [&](Slice key, Slice value) {
        if (!end.empty() && !(key < end)) return false;
        inner = LockRecord(key, LockMode::kS);
        if (!inner.ok()) return false;
        if (clustered) return fn(key, value);
        std::string payload;
        inner = table_->heap()->Get(RidFromBytes(value), &payload);
        if (!inner.ok()) return false;
        return fn(key, payload);
      }));
  return inner;
}

}  // namespace plp

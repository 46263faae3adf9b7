#include "src/io/checkpoint.h"

#include "src/io/codec.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace plp {

using io::PutU32;
using io::PutU64;
using io::PutBytes;
using io::Reader;

std::string CheckpointImage::Encode() const {
  std::string out;
  PutU64(&out, begin_lsn);
  PutU32(&out, static_cast<std::uint32_t>(dirty_pages.size()));
  for (const auto& [pid, lsn] : dirty_pages) {
    PutU32(&out, pid);
    PutU64(&out, lsn);
  }
  PutU32(&out, static_cast<std::uint32_t>(active_txns.size()));
  for (const auto& [txn, lsn] : active_txns) {
    PutU64(&out, txn);
    PutU64(&out, lsn);
  }
  PutU64(&out, next_txn_id);
  PutU32(&out, next_page_id);
  PutU32(&out, static_cast<std::uint32_t>(partitions.size()));
  for (const TablePartitions& t : partitions) {
    PutU32(&out, t.table_id);
    PutU32(&out, static_cast<std::uint32_t>(t.parts.size()));
    for (const auto& [key, root] : t.parts) {
      PutBytes(&out, key);
      PutU32(&out, root);
    }
  }
  return out;
}

Status CheckpointImage::Decode(const std::string& payload,
                               CheckpointImage* out) {
  Reader r(payload.data(), payload.size());
  CheckpointImage img;
  std::uint32_t n;
  if (!r.U64(&img.begin_lsn)) return Status::Corruption("checkpoint: begin");
  if (!r.U32(&n)) return Status::Corruption("checkpoint: dpt count");
  img.dirty_pages.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t pid;
    std::uint64_t lsn;
    if (!r.U32(&pid) || !r.U64(&lsn)) {
      return Status::Corruption("checkpoint: dpt entry");
    }
    img.dirty_pages.emplace_back(pid, lsn);
  }
  if (!r.U32(&n)) return Status::Corruption("checkpoint: txn count");
  img.active_txns.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t txn, lsn;
    if (!r.U64(&txn) || !r.U64(&lsn)) {
      return Status::Corruption("checkpoint: txn entry");
    }
    img.active_txns.emplace_back(txn, lsn);
  }
  if (!r.U64(&img.next_txn_id)) {
    return Status::Corruption("checkpoint: next txn id");
  }
  if (!r.U32(&img.next_page_id)) {
    return Status::Corruption("checkpoint: next page id");
  }
  if (!r.U32(&n)) return Status::Corruption("checkpoint: partition count");
  img.partitions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TablePartitions t;
    std::uint32_t parts;
    if (!r.U32(&t.table_id) || !r.U32(&parts)) {
      return Status::Corruption("checkpoint: partition header");
    }
    t.parts.reserve(parts);
    for (std::uint32_t j = 0; j < parts; ++j) {
      std::string key;
      std::uint32_t root;
      if (!r.Bytes(&key) || !r.U32(&root)) {
        return Status::Corruption("checkpoint: partition entry");
      }
      t.parts.emplace_back(std::move(key), root);
    }
    img.partitions.push_back(std::move(t));
  }
  *out = std::move(img);
  return Status::OK();
}

Lsn CheckpointImage::ScanStart(Lsn checkpoint_lsn) const {
  // A page dirtied (or txn begun) after begin_lsn may be missing from the
  // tables, so the scan can never start later than begin_lsn.
  Lsn start = std::min(checkpoint_lsn, begin_lsn > 0 ? begin_lsn
                                                     : checkpoint_lsn);
  for (const auto& [pid, lsn] : dirty_pages) start = std::min(start, lsn);
  for (const auto& [txn, lsn] : active_txns) {
    if (lsn != kInvalidLsn) start = std::min(start, lsn);
  }
  return start;
}

Status WriteMasterRecord(const std::string& path, Lsn checkpoint_lsn) {
  std::string blob;
  PutU32(&blob, 0x504c504d);  // "PLPM"
  PutU64(&blob, checkpoint_lsn);
  return io::AtomicWriteFile(path, blob);
}

Status ReadMasterRecord(const std::string& path, Lsn* checkpoint_lsn) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no master record");
  std::uint32_t magic = 0;
  Lsn lsn = 0;
  const bool ok =
      std::fread(&magic, 4, 1, f) == 1 && std::fread(&lsn, 8, 1, f) == 1;
  std::fclose(f);
  if (!ok || magic != 0x504c504d) {
    return Status::Corruption("bad master record " + path);
  }
  *checkpoint_lsn = lsn;
  return Status::OK();
}

}  // namespace plp

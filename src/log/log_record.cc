#include "src/log/log_record.h"

#include <cstring>

namespace plp {

const char* LogTypeName(LogType t) {
  switch (t) {
    case LogType::kBegin: return "BEGIN";
    case LogType::kCommit: return "COMMIT";
    case LogType::kAbort: return "ABORT";
    case LogType::kHeapInsert: return "HEAP_INSERT";
    case LogType::kHeapUpdate: return "HEAP_UPDATE";
    case LogType::kHeapDelete: return "HEAP_DELETE";
    case LogType::kCheckpoint: return "CHECKPOINT";
    case LogType::kIndexLeafInsert: return "IDX_LEAF_INSERT";
    case LogType::kIndexLeafDelete: return "IDX_LEAF_DELETE";
    case LogType::kIndexLeafUpdate: return "IDX_LEAF_UPDATE";
    case LogType::kIndexSmo: return "IDX_SMO";
    case LogType::kIndexPageFree: return "IDX_PAGE_FREE";
    case LogType::kPartitionTable: return "PARTITION_TABLE";
    case LogType::kIndexRepartition: return "IDX_REPARTITION";
  }
  return "?";
}

namespace {
void PutU32(std::string* s, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  s->append(b, 4);
}
void PutU16(std::string* s, std::uint16_t v) {
  char b[2];
  std::memcpy(b, &v, 2);
  s->append(b, 2);
}
void PutU64(std::string* s, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  s->append(b, 8);
}
std::uint32_t GetU32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint16_t GetU16(const char* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint64_t GetU64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}
}  // namespace

std::string LogRecord::Serialize() const {
  std::string out;
  out.reserve(SerializedSize());
  PutU32(&out, static_cast<std::uint32_t>(SerializedSize()));
  out.push_back(static_cast<char>(type));
  PutU64(&out, txn);
  PutU32(&out, rid.page_id);
  PutU16(&out, rid.slot);
  PutU32(&out, table);
  PutU32(&out, static_cast<std::uint32_t>(redo.size()));
  PutU32(&out, static_cast<std::uint32_t>(undo.size()));
  out.append(redo);
  out.append(undo);
  return out;
}

bool LogRecord::Deserialize(const char* data, std::size_t size, LogRecord* out,
                            std::size_t* consumed) {
  if (size < kHeaderSize) return false;
  const std::uint32_t total = GetU32(data);
  if (total < kHeaderSize || total > size) return false;
  const char* p = data + 4;
  out->type = static_cast<LogType>(*p);
  p += 1;
  out->txn = GetU64(p);
  p += 8;
  out->rid.page_id = GetU32(p);
  p += 4;
  out->rid.slot = GetU16(p);
  p += 2;
  out->table = GetU32(p);
  p += 4;
  const std::uint32_t redo_len = GetU32(p);
  p += 4;
  const std::uint32_t undo_len = GetU32(p);
  p += 4;
  if (kHeaderSize + redo_len + undo_len != total) return false;
  out->redo.assign(p, redo_len);
  p += redo_len;
  out->undo.assign(p, undo_len);
  *consumed = total;
  return true;
}

}  // namespace plp

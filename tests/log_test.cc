// Tests for the log record format, the Aether-style log buffer, and the
// log manager scan path.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/log/log_buffer.h"
#include "src/log/log_manager.h"
#include "src/log/log_record.h"

namespace plp {
namespace {

// A WAL directory private to one test, removed on scope exit.
class ScratchWalDir {
 public:
  ScratchWalDir()
      : path_(std::filesystem::temp_directory_path() /
              ("plp_log_test_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchWalDir() { std::filesystem::remove_all(path_); }

  LogConfig Config() const {
    LogConfig config;
    config.wal_dir = path_.string();
    return config;
  }

 private:
  std::filesystem::path path_;
};

TEST(LogRecordTest, SerializeRoundTrip) {
  LogRecord rec;
  rec.type = LogType::kHeapUpdate;
  rec.txn = 77;
  rec.rid = Rid{12, 3};
  rec.redo = "after-image";
  rec.undo = "before-image";

  const std::string bytes = rec.Serialize();
  EXPECT_EQ(bytes.size(), rec.SerializedSize());

  LogRecord parsed;
  std::size_t consumed = 0;
  ASSERT_TRUE(
      LogRecord::Deserialize(bytes.data(), bytes.size(), &parsed, &consumed));
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parsed.type, LogType::kHeapUpdate);
  EXPECT_EQ(parsed.txn, 77u);
  EXPECT_EQ(parsed.rid, (Rid{12, 3}));
  EXPECT_EQ(parsed.redo, "after-image");
  EXPECT_EQ(parsed.undo, "before-image");
}

TEST(LogRecordTest, DeserializeRejectsTruncation) {
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn = 5;
  const std::string bytes = rec.Serialize();
  LogRecord parsed;
  std::size_t consumed;
  EXPECT_FALSE(LogRecord::Deserialize(bytes.data(), bytes.size() - 1, &parsed,
                                      &consumed));
  EXPECT_FALSE(LogRecord::Deserialize(bytes.data(), 3, &parsed, &consumed));
}

TEST(LogRecordTest, EmptyImagesAllowed) {
  LogRecord rec;
  rec.type = LogType::kBegin;
  rec.txn = 1;
  const std::string bytes = rec.Serialize();
  LogRecord parsed;
  std::size_t consumed;
  ASSERT_TRUE(
      LogRecord::Deserialize(bytes.data(), bytes.size(), &parsed, &consumed));
  EXPECT_TRUE(parsed.redo.empty());
  EXPECT_TRUE(parsed.undo.empty());
}

TEST(LogBufferTest, LsnsAreDenseAndOrdered) {
  LogBuffer buf(1 << 16);
  const Lsn a = buf.Append("aaaa");
  const Lsn b = buf.Append("bbbbbb");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(buf.next_lsn(), 10u);
}

TEST(LogBufferTest, SinkReceivesBytesInOrder) {
  std::string sunk;
  LogBuffer buf(1 << 12, [&](const char* d, std::size_t n) {
    sunk.append(d, n);
  });
  buf.Append("hello ");
  buf.Append("world");
  buf.FlushAll();
  EXPECT_EQ(sunk, "hello world");
}

TEST(LogBufferTest, WrapsAroundSmallRing) {
  std::string sunk;
  LogBuffer buf(64, [&](const char* d, std::size_t n) { sunk.append(d, n); });
  std::string expected;
  for (int i = 0; i < 50; ++i) {
    std::string chunk(7, static_cast<char>('a' + (i % 26)));
    buf.Append(chunk);
    expected += chunk;
  }
  buf.FlushAll();
  EXPECT_EQ(sunk, expected);
}

TEST(LogBufferTest, ConcurrentAppendersProduceDisjointLsns) {
  LogBuffer buf(1 << 20);
  constexpr int kThreads = 4, kEach = 2000;
  std::vector<std::vector<Lsn>> lsns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        lsns[static_cast<std::size_t>(t)].push_back(buf.Append("0123456789"));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::vector<Lsn> all;
  for (auto& v : lsns) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i * 10) << "LSN space must be dense";
  }
}

TEST(LogBufferTest, FlushToMakesPrefixDurable) {
  LogBuffer buf(1 << 12);
  const Lsn lsn = buf.Append("abcdef");
  buf.FlushTo(lsn);
  EXPECT_GT(buf.durable_lsn(), lsn);
}

TEST(LogManagerTest, ScanRequiresRetention) {
  LogManager log;  // in memory: flushed bytes are discarded
  LogRecord rec;
  rec.type = LogType::kBegin;
  rec.txn = 1;
  log.Append(rec);
  Status st = log.Scan([](Lsn, const LogRecord&) {});
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
}

TEST(LogManagerTest, ScanReturnsRecordsInOrder) {
  ScratchWalDir dir;
  LogManager log(dir.Config());
  ASSERT_TRUE(log.open_status().ok());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    LogRecord rec;
    rec.type = LogType::kHeapInsert;
    rec.txn = i;
    rec.rid = Rid{static_cast<PageId>(i), 0};
    rec.redo = "payload" + std::to_string(i);
    log.Append(rec);
  }
  std::vector<TxnId> seen;
  ASSERT_TRUE(log.Scan([&](Lsn, const LogRecord& rec) {
    seen.push_back(rec.txn);
  }).ok());
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 2, 3, 4, 5}));
}

TEST(LogManagerTest, ConcurrentAppendScanConsistent) {
  ScratchWalDir dir;
  LogManager log(dir.Config());
  ASSERT_TRUE(log.open_status().ok());
  constexpr int kThreads = 4, kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        LogRecord rec;
        rec.type = LogType::kHeapInsert;
        rec.txn = static_cast<TxnId>(t + 1);
        rec.redo = std::string(16, static_cast<char>('a' + t));
        log.Append(rec);
      }
    });
  }
  for (auto& th : threads) th.join();
  int count = 0;
  ASSERT_TRUE(log.Scan([&](Lsn, const LogRecord&) { ++count; }).ok());
  EXPECT_EQ(count, kThreads * kEach);
}

}  // namespace
}  // namespace plp

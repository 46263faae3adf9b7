// Close/reopen memory: a destroyed engine's buffer-pool frames must go back
// to the OS, so reopening the same database costs what the first open did
// instead of stacking a second pool on top of the first one's leftovers.
// Its own binary: resident-set readings are process-wide, and other cases'
// heaps would blur them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "src/engine/engine.h"
#include "src/workload/tatp.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PLP_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PLP_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace plp {
namespace {

double ResidentMb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

std::unique_ptr<Engine> Open(const std::string& dir) {
  EngineConfig config;
  config.design = SystemDesign::kPlpLeaf;
  config.num_workers = 3;
  config.db.data_dir = dir;
  auto created = CreateEngine(config);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  if (!created.ok()) return nullptr;
  std::unique_ptr<Engine> engine = std::move(created).value();
  EXPECT_TRUE(engine->db().open_status().ok())
      << engine->db().open_status().ToString();
  engine->Start();
  return engine;
}

TEST(FrameMemoryTest, ClosedPoolReturnsFramesAndReopenDoesNotStack) {
#ifdef PLP_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer allocator keeps freed memory quarantined";
#else
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("plp_frame_memory_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const double before_open = ResidentMb();
  std::unique_ptr<Engine> engine = Open(dir);
  ASSERT_NE(engine, nullptr);
  TatpConfig tatp_config;
  tatp_config.subscribers = 20000;
  tatp_config.partitions = 3;
  TatpWorkload tatp(engine.get(), tatp_config);
  ASSERT_TRUE(tatp.Load().ok());
  const double after_load = ResidentMb();

  ASSERT_TRUE(engine->db().Close().ok());
  engine.reset();
  const double after_destroy = ResidentMb();

  engine = Open(dir);
  ASSERT_NE(engine, nullptr);
  const double after_reopen = ResidentMb();
  ASSERT_TRUE(engine->db().Close().ok());
  engine.reset();
  std::filesystem::remove_all(dir);

  RecordProperty("rss_before_open_mb", std::to_string(before_open));
  RecordProperty("rss_after_load_mb", std::to_string(after_load));
  RecordProperty("rss_after_destroy_mb", std::to_string(after_destroy));
  RecordProperty("rss_after_reopen_mb", std::to_string(after_reopen));
  // The load must have built a pool worth measuring, or the bounds below
  // hold trivially.
  EXPECT_GT(after_load, before_open + 16.0);
  EXPECT_LE(after_destroy, before_open + 8.0)
      << "a destroyed engine kept its memory: " << before_open << " MB -> "
      << after_destroy << " MB";
  EXPECT_LE(after_reopen, after_load + 5.0)
      << "the reopened pool stacked on the first one: load " << after_load
      << " MB, reopen " << after_reopen << " MB";
#endif
}

}  // namespace
}  // namespace plp

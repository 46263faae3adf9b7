// Bank audit scenario: TPC-B-style transfers with a consistency audit and
// a crash-recovery drill. Demonstrates that PLP keeps full transactional
// semantics (atomic multi-table transactions, WAL, restart recovery) —
// it is still a shared-everything system with one log.
//
// The database lives in a scratch directory with durable commits. A child
// process loads it, runs transfers, audits, starts more transfers and
// crashes (_exit, no Close()) while they are in flight. The parent then
// reopens the directory through restart recovery and audits again. Exits
// non-zero if either audit finds the tables inconsistent or recovery
// fails.
//
//   $ ./example_bank_audit
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "src/engine/engine.h"
#include "src/workload/tpcb.h"
#include "src/workload/workload_driver.h"

using namespace plp;  // NOLINT — example brevity

namespace {

std::unique_ptr<Engine> Open(const EngineConfig& config) {
  auto created = CreateEngine(config);
  if (!created.ok()) {
    std::fprintf(stderr, "create engine: %s\n",
                 created.status().ToString().c_str());
    return nullptr;
  }
  auto engine = std::move(created).value();
  if (!engine->db().open_status().ok()) {
    std::fprintf(stderr, "open/recovery: %s\n",
                 engine->db().open_status().ToString().c_str());
    return nullptr;
  }
  engine->Start();
  return engine;
}

// Each transfer adds the same delta to one account, one teller and one
// branch, so the three sums must agree exactly.
bool Audit(Engine* engine, const char* when) {
  auto sum_table = [&](const char* name) {
    std::int64_t total = 0;
    engine->db().GetTable(name)->heap()->Scan(
        [&](Rid, Slice rec) { total += TpcbWorkload::BalanceOf(rec); });
    return total;
  };
  const std::int64_t branches = sum_table(TpcbWorkload::kBranch);
  const std::int64_t tellers = sum_table(TpcbWorkload::kTeller);
  const std::int64_t accounts = sum_table(TpcbWorkload::kAccount);
  const bool consistent = branches == tellers && tellers == accounts;
  std::printf("audit (%s): branches=%lld tellers=%lld accounts=%lld -> %s\n",
              when, static_cast<long long>(branches),
              static_cast<long long>(tellers),
              static_cast<long long>(accounts),
              consistent ? "CONSISTENT" : "BROKEN!");
  return consistent;
}

// Child process: load, transfer, audit, then crash mid-workload. Returns
// (non-zero) only on failure; the crash itself is _exit(0).
int RunUntilCrash(const EngineConfig& config) {
  auto engine = Open(config);
  if (engine == nullptr) return 1;

  TpcbConfig tpcb_config;
  tpcb_config.branches = 8;
  tpcb_config.tellers_per_branch = 10;
  tpcb_config.accounts_per_branch = 500;
  tpcb_config.partitions = 4;
  TpcbWorkload tpcb(engine.get(), tpcb_config);
  if (Status st = tpcb.Load(); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return 1;
  }

  DriverOptions options;
  options.num_threads = 4;
  options.duration = std::chrono::milliseconds(1000);
  auto next = [&](Rng& rng) { return tpcb.NextTransaction(rng); };
  DriverResult r = RunWorkload(engine.get(), next, options);
  std::printf("ran %llu transfer transactions (%.1f Ktps)\n",
              static_cast<unsigned long long>(r.committed), r.ktps());
  if (!Audit(engine.get(), "before crash")) return 1;

  // Crash with transfers in flight: only the WAL's durable history and
  // whatever pages the cleaner happened to write survive.
  std::thread more([&] { (void)RunWorkload(engine.get(), next, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::printf("crash with transfers in flight\n");
  std::fflush(stdout);
  _exit(0);
}

int ReopenAndAudit(const EngineConfig& config) {
  auto engine = Open(config);
  if (engine == nullptr) return 1;
  const RecoveryManager::Stats& stats = engine->db().recovery_stats();
  std::printf(
      "recovery: %llu winners, %llu losers, %llu redo ops, %llu undo ops\n",
      static_cast<unsigned long long>(stats.winners),
      static_cast<unsigned long long>(stats.losers),
      static_cast<unsigned long long>(stats.redo_ops),
      static_cast<unsigned long long>(stats.undo_ops));
  const bool consistent = Audit(engine.get(), "after recovery");
  engine->Stop();
  if (Status st = engine->db().Close(); !st.ok()) {
    std::fprintf(stderr, "close: %s\n", st.ToString().c_str());
    return 1;
  }
  return consistent ? 0 : 1;
}

int Run(const std::string& dir) {
  EngineConfig config;
  config.design = SystemDesign::kPlpLeaf;
  config.num_workers = 4;
  config.db.data_dir = dir;
  config.db.txn.durable_commits = true;

  // Fork before any engine thread exists; the child never returns.
  std::fflush(stdout);
  const pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) _exit(RunUntilCrash(config));
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "workload process failed before the crash\n");
    return 1;
  }
  return ReopenAndAudit(config);
}

}  // namespace

int main() {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("plp_bank_audit_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const int rc = Run(dir.string());
  std::filesystem::remove_all(dir);
  return rc;
}

// Quickstart: create a PLP engine, make a partitioned table, pipeline
// asynchronous transactions through it, and inspect what the design
// eliminated.
//
//   $ ./example_quickstart
//   $ PLP_STATS_INTERVAL_MS=100 ./example_quickstart   # periodic [stats] JSON
//   $ PLP_TRACE_PATH=trace.json ./example_quickstart   # Perfetto timeline
//     (open at https://ui.perfetto.dev or chrome://tracing)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/sync/cs_profiler.h"

using namespace plp;  // NOLINT — example brevity

int main() {
  // 1. Pick a system design. kPlpLeaf is the paper's favorite: latch-free
  //    index AND heap accesses.
  EngineConfig config;
  config.design = SystemDesign::kPlpLeaf;
  config.num_workers = 4;
  // Optional background stats reporter: with PLP_STATS_INTERVAL_MS set,
  // the engine prints a `[stats] {...}` JSON snapshot of every metric at
  // that cadence (plus a final one at shutdown).
  if (const char* ms = std::getenv("PLP_STATS_INTERVAL_MS")) {
    config.stats_interval = std::chrono::milliseconds(std::atoi(ms));
  }
  auto created = CreateEngine(config);
  if (!created.ok()) {
    std::fprintf(stderr, "create engine: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(created).value();
  engine->Start();

  // 2. Create a table partitioned into four key ranges. Each range is one
  //    MRBTree sub-tree owned by one partition worker.
  auto table = engine->CreateTable(
      "accounts", {"", KeyU32(2500), KeyU32(5000), KeyU32(7500)});
  if (!table.ok()) {
    std::fprintf(stderr, "create table: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  // 3. Transactions are flow graphs of actions; the partition manager
  //    routes each action to the worker owning its key range. Submit()
  //    returns a TxnHandle immediately, so this single client thread keeps
  //    thousands of inserts in flight across the four workers; once
  //    max_inflight transactions are pending, Submit blocks until a slot
  //    frees (backpressure).
  CsProfiler::Global().Reset();
  std::atomic<std::uint64_t> callback_commits{0};
  std::vector<TxnHandle> handles;
  handles.reserve(10000);
  for (std::uint32_t id = 1; id <= 10000; ++id) {
    TxnRequest txn;
    const std::string key = KeyU32(id);
    txn.Add(0, "accounts", key, [key](ExecContext& ctx) {
      return ctx.Insert(key, "balance=100");
    });
    TxnOptions options;
    options.on_complete = [&callback_commits](const Status& st) {
      if (st.ok()) callback_commits.fetch_add(1, std::memory_order_relaxed);
    };
    handles.push_back(engine->Submit(std::move(txn), std::move(options)));
  }
  const std::size_t peak = engine->peak_inflight();
  for (std::uint32_t id = 1; id <= 10000; ++id) {
    if (Status st = handles[id - 1].Wait(); !st.ok()) {
      std::fprintf(stderr, "insert %u: %s\n", id, st.ToString().c_str());
      return 1;
    }
  }

  // A multi-step transaction: read one account, then write another —
  // possibly on a different partition worker, with a rendezvous between
  // the two phases. Execute() is the blocking wrapper over
  // Submit(...).Wait() for when a caller wants the classic API.
  auto balance = std::make_shared<std::string>();
  TxnRequest transfer;
  const std::string from = KeyU32(42), to = KeyU32(9001);
  transfer.Add(0, "accounts", from, [from, balance](ExecContext& ctx) {
    return ctx.Read(from, balance.get());
  });
  transfer.Add(1, "accounts", to, [to, balance](ExecContext& ctx) {
    return ctx.Update(to, *balance + "+transfer");
  });
  if (Status st = engine->Execute(transfer); !st.ok()) {
    std::fprintf(stderr, "transfer: %s\n", st.ToString().c_str());
    return 1;
  }

  // 4. The point of PLP: zero page latches on index and heap pages — and
  //    with the async front door, deep pipelining from one client thread.
  CsCounts counts = CsProfiler::Global().Collect();
  std::printf("transactions committed : 10001 (%llu via callbacks)\n",
              static_cast<unsigned long long>(callback_commits.load()));
  std::printf("peak in-flight         : %llu (1 client thread)\n",
              static_cast<unsigned long long>(peak));
  std::printf("index page latches     : %llu\n",
              static_cast<unsigned long long>(
                  counts.latches[static_cast<int>(PageClass::kIndex)]));
  std::printf("heap page latches      : %llu\n",
              static_cast<unsigned long long>(
                  counts.latches[static_cast<int>(PageClass::kHeap)]));
  std::printf("lock-manager entries   : %llu\n",
              static_cast<unsigned long long>(
                  counts.entries[static_cast<int>(CsCategory::kLockMgr)]));
  std::printf("message-passing entries: %llu  (the fixed-contention kind)\n",
              static_cast<unsigned long long>(counts.entries[static_cast<int>(
                  CsCategory::kMessagePassing)]));
  std::printf("index integrity        : %s\n",
              table.value()->primary()->CheckIntegrity().ToString().c_str());

  // 5. Engine-wide observability: GetStats() snapshots every registered
  //    counter/gauge/histogram (see docs/observability.md for the catalog).
  const StatsSnapshot stats = engine->GetStats();
  std::printf("txn.commits            : %llu\n",
              static_cast<unsigned long long>(stats.counter("txn.commits")));
  std::printf("partition.cross_site   : %llu of %llu routed txns\n",
              static_cast<unsigned long long>(
                  stats.counter("partition.cross_site_txns")),
              static_cast<unsigned long long>(stats.counter("partition.txns")));

  // 6. Flight recorder: with PLP_TRACE_PATH set, export the per-thread
  //    event rings (partition phases, any latch/lock waits) as
  //    Chrome-trace JSON, loadable in Perfetto.
  if (const char* trace_path = std::getenv("PLP_TRACE_PATH")) {
    if (Status st = engine->DumpTrace(trace_path); st.ok()) {
      std::printf("flight recorder trace  : %s\n", trace_path);
    } else {
      std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
    }
  }

  engine->Stop();
  return 0;
}

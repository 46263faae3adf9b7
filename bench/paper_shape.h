// Shared helpers for the figure/table reproduction programs, and the one
// measurement path for the paper's count claims.
//
// MeasureCounts() loads a workload on one design and runs a fixed number
// of seeded transactions through Engine::Execute from a single client, so
// its critical-section counts depend neither on a timed window nor on the
// number of clients the host can run at once. Every count column of the
// figure programs (Figures 1-3 and 5-7) is printed from it, Table 1's
// slice from MeasureSlice(), and tests/paper_shape_test.cc asserts the
// paper's claims on the same numbers. The timing columns (Ktps, time
// breakdowns; Figures 5-10) measure one fixed window, kWindow, per row.
#ifndef PLP_PAPER_SHAPE_H_
#define PLP_PAPER_SHAPE_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/buffer/buffer_pool.h"
#include "src/common/clock.h"
#include "src/common/key_encoding.h"
#include "src/engine/engine.h"
#include "src/index/mrbtree.h"
#include "src/sync/cs_profiler.h"
#include "src/workload/tatp.h"
#include "src/workload/tpcb.h"
#include "src/workload/tpcc.h"
#include "src/workload/workload_driver.h"

namespace plp::bench {

/// Measurement window of the timing figures.
inline constexpr std::chrono::milliseconds kWindow{300};

/// Transactions per count experiment.
inline constexpr int kCountTxns = 20000;

/// Builds and starts an engine for one experiment. Config errors abort
/// the program (they are programming errors here).
inline std::unique_ptr<Engine> MakeEngine(SystemDesign design,
                                          int workers = 4,
                                          bool use_mrbt = false,
                                          bool enable_sli = true) {
  EngineConfig config;
  config.design = design;
  config.num_workers = workers;
  config.use_mrbt = use_mrbt;
  config.enable_sli = enable_sli;
  auto created = CreateEngine(config);
  if (!created.ok()) {
    std::fprintf(stderr, "CreateEngine(%s): %s\n", SystemDesignName(design),
                 created.status().ToString().c_str());
    std::abort();
  }
  auto engine = std::move(created).value();
  engine->Start();
  return engine;
}

/// Aborts the program when a workload fails to load.
inline void MustLoad(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s load: %s\n", what, st.ToString().c_str());
  std::abort();
}

/// Workloads of the count experiments.
enum class CountWorkload {
  kTatp,               // standard TATP mix (Figures 1-3)
  kTatpGetSubscriber,  // read-only GetSubscriberData (Figure 5)
  kTatpInsertDelete,   // CALL_FORWARDING inserts/deletes (Figure 6)
  kTpcb,               // TPC-B, unpadded records (Figures 2 and 7)
  kTpcc,               // TPC-C mix (Figure 2)
};

/// One design of the Figure 1 comparison.
struct Variant {
  const char* label;
  SystemDesign design;
  bool enable_sli = true;
};

/// Figure 1's five systems; "SLI" is the conventional system the other
/// figures compare against.
inline constexpr Variant kFig1Variants[] = {
    {"Baseline", SystemDesign::kConventional, false},
    {"SLI", SystemDesign::kConventional, true},
    {"Logical-only", SystemDesign::kLogical, true},
    {"PLP", SystemDesign::kPlpRegular, true},
    {"PLP-Leaf", SystemDesign::kPlpLeaf, true},
};

/// Counts of one fixed-length run.
struct CountRun {
  std::uint64_t committed = 0;
  CsCounts cs;

  double PerTxn(std::uint64_t n) const {
    return committed == 0 ? 0
                          : static_cast<double>(n) /
                                static_cast<double>(committed);
  }
  double Entries(CsCategory c) const {
    return PerTxn(cs.entries[static_cast<int>(c)]);
  }
  double Latches(PageClass c) const {
    return PerTxn(cs.latches[static_cast<int>(c)]);
  }
  double TotalLatches() const { return PerTxn(cs.TotalLatches()); }
  /// Critical sections that limit scaling (Section 2.1): lock manager,
  /// page latches and the buffer pool.
  double Unscalable() const {
    return Entries(CsCategory::kLockMgr) + Entries(CsCategory::kPageLatch) +
           Entries(CsCategory::kBufferPool);
  }
  /// Page-latch critical sections that are not page latches: the latched
  /// B+Tree's SMO mutex (one structure modification at a time).
  double SmoMutex() const {
    return PerTxn(cs.entries[static_cast<int>(CsCategory::kPageLatch)] -
                  cs.TotalLatches());
  }
};

/// Databases of the count experiments; the timing figures load the same
/// ones, so their time rows and count rows describe one database.
inline TatpConfig CountTatpConfig() {
  TatpConfig config;
  config.subscribers = 5000;
  config.partitions = 4;
  return config;
}

inline TpcbConfig CountTpcbConfig() {
  TpcbConfig config;
  config.branches = 16;
  config.tellers_per_branch = 10;
  config.accounts_per_branch = 500;
  config.partitions = 4;
  config.pad_records = false;  // hot rows share heap pages (Figure 7)
  return config;
}

inline TpccConfig CountTpccConfig() {
  TpccConfig config;
  config.warehouses = 4;
  config.items = 500;
  config.customers_per_district = 50;
  config.partitions = 4;
  return config;
}

/// Loads `workload` on a fresh 4-worker engine and runs `txns` seeded
/// transactions one at a time. The counts are the CsProfiler delta over
/// the transactions (loading excluded); `committed` counts successes.
inline CountRun MeasureCounts(const Variant& variant, CountWorkload workload,
                              int txns) {
  auto engine = MakeEngine(variant.design, 4, false, variant.enable_sli);
  // Each case loads its workload and binds `next`, which owns it.
  auto load_tatp = [&] {
    auto tatp = std::make_shared<TatpWorkload>(engine.get(), CountTatpConfig());
    MustLoad(tatp->Load(), "TATP");
    return tatp;
  };
  TxnFactory next;
  switch (workload) {
    case CountWorkload::kTatp:
      next = [tatp = load_tatp()](Rng& rng) {
        return tatp->NextTransaction(rng);
      };
      break;
    case CountWorkload::kTatpGetSubscriber:
      next = [tatp = load_tatp()](Rng& rng) {
        return tatp->GetSubscriberData(tatp->RandomSubscriber(rng));
      };
      break;
    case CountWorkload::kTatpInsertDelete:
      next = [tatp = load_tatp()](Rng& rng) {
        return tatp->NextInsertDeleteHeavy(rng);
      };
      break;
    case CountWorkload::kTpcb: {
      auto tpcb =
          std::make_shared<TpcbWorkload>(engine.get(), CountTpcbConfig());
      MustLoad(tpcb->Load(), "TPC-B");
      next = [tpcb](Rng& rng) { return tpcb->NextTransaction(rng); };
      break;
    }
    case CountWorkload::kTpcc: {
      auto tpcc =
          std::make_shared<TpccWorkload>(engine.get(), CountTpccConfig());
      MustLoad(tpcc->Load(), "TPC-C");
      next = [tpcc](Rng& rng) { return tpcc->NextTransaction(rng); };
      break;
    }
  }

  Rng rng(1);
  CountRun run;
  const CsCounts before = CsProfiler::Global().Collect();
  for (int i = 0; i < txns; ++i) {
    TxnRequest req = next(rng);
    if (engine->Execute(req).ok()) ++run.committed;
  }
  run.cs = CsProfiler::Global().Collect() - before;
  engine->Stop();
  return run;
}

/// Table 1's measured point: one MRBTree slice of a 200k-entry tree.
struct SliceRun {
  double ms = 0;
  std::size_t new_pages = 0;  // pages the slice allocated
  int height = 0;             // levels of the sliced tree
};

inline SliceRun MeasureSlice() {
  BufferPool pool;
  std::unique_ptr<MRBTree> tree;
  (void)MRBTree::Create(&pool, LatchPolicy::kNone, {""}, &tree);
  const std::string rid(6, 'r');
  for (std::uint32_t k = 0; k < 200000; ++k) {
    (void)tree->Insert(KeyU32(k), rid);
  }
  SliceRun run;
  run.height = tree->subtree(0)->height() + 1;
  const std::size_t pages_before = pool.num_pages();
  const std::uint64_t t0 = NowNanos();
  (void)tree->Split(KeyU32(100000));
  run.ms = NanosToMillis(NowNanos() - t0);
  run.new_pages = pool.num_pages() - pages_before;
  return run;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n  (reproduces %s)\n", title, paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace plp::bench

#endif  // PLP_PAPER_SHAPE_H_

// Asynchronous transaction API tests: Submit/TxnHandle semantics,
// admission-control backpressure, completion callbacks, and an open-loop
// stress run (N client threads x M in-flight handles) across all five
// system designs — including aborts whose undo closures execute while
// other transactions are pipelined behind them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/key_encoding.h"
#include "src/engine/engine.h"

namespace plp {
namespace {

class AsyncApiTest : public ::testing::TestWithParam<SystemDesign> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.design = GetParam();
    config.num_workers = 4;
    auto created = CreateEngine(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    engine_ = std::move(created).value();
    engine_->Start();
    auto result = engine_->CreateTable(
        "t", {"", KeyU32(250000), KeyU32(500000), KeyU32(750000)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    table_ = result.value();
  }

  void TearDown() override { engine_->Stop(); }

  static TxnRequest InsertTxn(std::uint32_t k, const std::string& value) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    req.Add(0, "t", key, [key, value](ExecContext& ctx) {
      return ctx.Insert(key, value);
    });
    return req;
  }

  Status ReadKey(std::uint32_t k, std::string* out) {
    TxnRequest req;
    const std::string key = KeyU32(k);
    auto holder = std::make_shared<std::string>();
    req.Add(0, "t", key, [key, holder](ExecContext& ctx) {
      return ctx.Read(key, holder.get());
    });
    Status st = engine_->Execute(req);
    *out = *holder;
    return st;
  }

  std::unique_ptr<Engine> engine_;
  Table* table_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, AsyncApiTest,
    ::testing::Values(SystemDesign::kConventional, SystemDesign::kLogical,
                      SystemDesign::kPlpRegular, SystemDesign::kPlpPartition,
                      SystemDesign::kPlpLeaf),
    [](const auto& info) {
      switch (info.param) {
        case SystemDesign::kConventional: return "Conventional";
        case SystemDesign::kLogical: return "Logical";
        case SystemDesign::kPlpRegular: return "PlpRegular";
        case SystemDesign::kPlpPartition: return "PlpPartition";
        case SystemDesign::kPlpLeaf: return "PlpLeaf";
      }
      return "Unknown";
    });

TEST_P(AsyncApiTest, SubmitWaitCommits) {
  TxnHandle h = engine_->Submit(InsertTxn(1, "v"));
  ASSERT_TRUE(h.valid());
  EXPECT_TRUE(h.Wait().ok());
  // Wait is idempotent.
  EXPECT_TRUE(h.Wait().ok());
  std::string out;
  ASSERT_TRUE(ReadKey(1, &out).ok());
  EXPECT_EQ(out, "v");
}

TEST_P(AsyncApiTest, TryGetEventuallyObservesCompletion) {
  TxnHandle h = engine_->Submit(InsertTxn(2, "v"));
  Status st;
  while (!h.TryGet(&st)) std::this_thread::yield();
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(h.done());
}

TEST_P(AsyncApiTest, CallbackRunsOnceBeforeWaitReturns) {
  std::atomic<int> calls{0};
  Status seen;
  TxnOptions options;
  options.on_complete = [&](const Status& st) {
    seen = st;
    calls.fetch_add(1);
  };
  TxnHandle h = engine_->Submit(InsertTxn(3, "v"), std::move(options));
  EXPECT_TRUE(h.Wait().ok());
  EXPECT_EQ(calls.load(), 1) << "callback fired before Wait returned";
  EXPECT_TRUE(seen.ok());
}

TEST_P(AsyncApiTest, FailedTxnReportsStatusThroughHandle) {
  ASSERT_TRUE(engine_->Submit(InsertTxn(4, "v")).Wait().ok());
  TxnHandle h = engine_->Submit(InsertTxn(4, "dup"));
  EXPECT_TRUE(h.Wait().IsAlreadyExists());
}

TEST_P(AsyncApiTest, ExecuteIsAWrapperOverSubmitWait) {
  TxnRequest req = InsertTxn(5, "v");
  EXPECT_TRUE(engine_->Execute(req).ok());
  std::string out;
  ASSERT_TRUE(ReadKey(5, &out).ok());
  EXPECT_EQ(out, "v");
}

// A full admission gate with OnFull::kRetry resolves the handle
// immediately with Status::Retry instead of blocking.
TEST_P(AsyncApiTest, BackpressureRetryWhenGateFull) {
  EngineConfig config;
  config.design = GetParam();
  config.num_workers = 1;
  config.max_inflight = 1;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok());
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("g", {""}).ok());

  // Occupy the only slot with an action that parks until released.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool parked = false;
  TxnRequest blocker;
  const std::string key = KeyU32(1);
  blocker.Add(0, "g", key, [&](ExecContext&) {
    {
      std::lock_guard<std::mutex> g(mu);
      parked = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    return Status::OK();
  });
  TxnHandle held = engine->Submit(std::move(blocker));
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }

  auto insert_g = [](std::uint32_t k) {
    TxnRequest req;
    const std::string gkey = KeyU32(k);
    req.Add(0, "g", gkey, [gkey](ExecContext& ctx) {
      return ctx.Insert(gkey, "v");
    });
    return req;
  };
  TxnOptions options;
  options.on_full = TxnOptions::OnFull::kRetry;
  TxnHandle rejected = engine->Submit(insert_g(2), std::move(options));
  Status st;
  ASSERT_TRUE(rejected.TryGet(&st)) << "kRetry handle resolves immediately";
  EXPECT_TRUE(st.IsRetry()) << st.ToString();
  EXPECT_GE(engine->submissions_rejected(), 1u);

  {
    std::lock_guard<std::mutex> g(mu);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(held.Wait().ok());

  // With the slot free the same submission is admitted.
  TxnOptions retry_again;
  retry_again.on_full = TxnOptions::OnFull::kRetry;
  EXPECT_TRUE(
      engine->Submit(insert_g(2), std::move(retry_again)).Wait().ok());
  engine->Stop();
}

// OnFull::kBlock parks the submitter until a slot frees.
TEST_P(AsyncApiTest, BackpressureBlockWaitsForSlot) {
  EngineConfig config;
  config.design = GetParam();
  config.num_workers = 1;
  config.max_inflight = 1;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok());
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("g", {""}).ok());

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool parked = false;
  TxnRequest blocker;
  const std::string key = KeyU32(1);
  blocker.Add(0, "g", key, [&](ExecContext&) {
    {
      std::lock_guard<std::mutex> g(mu);
      parked = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return release; });
    return Status::OK();
  });
  TxnHandle held = engine->Submit(std::move(blocker));
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }

  std::atomic<bool> second_done{false};
  std::thread submitter([&] {
    TxnRequest req;
    const std::string gkey = KeyU32(2);
    req.Add(0, "g", gkey, [gkey](ExecContext& ctx) {
      return ctx.Insert(gkey, "v");
    });
    Status st = engine->Submit(std::move(req)).Wait();
    EXPECT_TRUE(st.ok()) << st.ToString();
    second_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_done.load()) << "second Submit must wait for the slot";

  {
    std::lock_guard<std::mutex> g(mu);
    release = true;
  }
  cv.notify_all();
  submitter.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_TRUE(held.Wait().ok());
  engine->Stop();
}

// Open-loop stress: N client threads each keep M handles in flight.
// Every submission must complete exactly once (callback count == handle
// count == submissions) with the expected per-handle outcome.
TEST_P(AsyncApiTest, StressClientsTimesInflightNoLostCompletions) {
  constexpr int kClients = 4;
  constexpr int kDepth = 64;
  constexpr int kPerClient = 500;

  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<std::uint64_t> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<TxnHandle> window;
      window.reserve(kDepth);
      auto drain = [&] {
        for (TxnHandle& h : window) {
          Status st = h.Wait();
          EXPECT_TRUE(st.ok()) << st.ToString();
          if (st.ok()) committed.fetch_add(1, std::memory_order_relaxed);
        }
        window.clear();
      };
      for (int i = 0; i < kPerClient; ++i) {
        const auto k = static_cast<std::uint32_t>(c * 1000000 + i);
        TxnOptions options;
        options.on_complete = [&callbacks](const Status&) {
          callbacks.fetch_add(1, std::memory_order_relaxed);
        };
        window.push_back(
            engine_->Submit(InsertTxn(k, "stress"), std::move(options)));
        if (static_cast<int>(window.size()) >= kDepth) drain();
      }
      drain();
    });
  }
  for (auto& t : clients) t.join();

  const std::uint64_t expected =
      static_cast<std::uint64_t>(kClients) * kPerClient;
  EXPECT_EQ(callbacks.load(), expected) << "lost or duplicated completions";
  EXPECT_EQ(committed.load(), expected);
  EXPECT_EQ(table_->primary()->num_entries(), expected);
  ASSERT_TRUE(table_->primary()->CheckIntegrity().ok());
  EXPECT_EQ(engine_->inflight(), 0u);
}

// Aborts under pipelining: transactions whose second phase fails must run
// their undo closures (on the owning workers for partitioned designs)
// while unrelated pipelined transactions race past them.
TEST_P(AsyncApiTest, AbortUnderPipeliningRunsUndoClosures) {
  // The poison key every aborting transaction collides with.
  ASSERT_TRUE(engine_->Submit(InsertTxn(999999, "poison")).Wait().ok());

  constexpr int kTxns = 200;
  std::vector<TxnHandle> handles;
  handles.reserve(2 * kTxns);
  for (int i = 0; i < kTxns; ++i) {
    // Aborting txn: phase 0 inserts a unique key (generating an undo
    // closure), phase 1 hits the duplicate and fails.
    const auto doomed = static_cast<std::uint32_t>(500000 + i);
    TxnRequest bad;
    const std::string k1 = KeyU32(doomed), k2 = KeyU32(999999);
    bad.Add(0, "t", k1,
            [k1](ExecContext& ctx) { return ctx.Insert(k1, "doomed"); });
    bad.Add(1, "t", k2,
            [k2](ExecContext& ctx) { return ctx.Insert(k2, "dup"); });
    handles.push_back(engine_->Submit(std::move(bad)));
    // Interleaved committing txn.
    handles.push_back(engine_->Submit(
        InsertTxn(static_cast<std::uint32_t>(100000 + i), "survivor")));
  }

  int aborted = 0, ok = 0;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const Status st = handles[i].Wait();
    if (i % 2 == 0) {
      // The duplicate makes the txn abort; under heavy lock contention the
      // conventional design may instead fall to a deadlock victim — either
      // way it must not commit.
      EXPECT_FALSE(st.ok());
      EXPECT_TRUE(st.IsAlreadyExists() || st.IsAborted() || st.IsTimedOut())
          << st.ToString();
      ++aborted;
    } else {
      EXPECT_TRUE(st.ok()) << st.ToString();
      ++ok;
    }
  }
  EXPECT_EQ(aborted, kTxns);
  EXPECT_EQ(ok, kTxns);

  // Undo closures removed every doomed insert; survivors remain.
  std::string out;
  for (int i = 0; i < kTxns; i += 17) {
    EXPECT_FALSE(
        ReadKey(static_cast<std::uint32_t>(500000 + i), &out).ok())
        << "undo closure did not run for " << i;
    EXPECT_TRUE(ReadKey(static_cast<std::uint32_t>(100000 + i), &out).ok());
  }
  ASSERT_TRUE(ReadKey(999999, &out).ok());
  EXPECT_EQ(out, "poison");
}

// Stop() + Start() must yield a working engine again (the submission
// queues reopen).
TEST_P(AsyncApiTest, EngineRestartsAfterStop) {
  ASSERT_TRUE(engine_->Submit(InsertTxn(50, "before")).Wait().ok());
  engine_->Stop();
  engine_->Start();
  ASSERT_TRUE(engine_->Submit(InsertTxn(51, "after")).Wait().ok());
  std::string out;
  ASSERT_TRUE(ReadKey(50, &out).ok());
  ASSERT_TRUE(ReadKey(51, &out).ok());
  EXPECT_EQ(out, "after");
}

// Submitting to an engine that was never started must not hang: the
// conventional design runs inline; partitioned designs fail fast (their
// partition discipline needs the workers).
TEST_P(AsyncApiTest, SubmitWithoutStartResolvesPromptly) {
  EngineConfig config;
  config.design = GetParam();
  config.num_workers = 2;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok());
  auto engine = std::move(created).value();
  // No Start(). CreateTable works (catalog only)...
  ASSERT_TRUE(engine->CreateTable("g", {""}).ok());
  TxnRequest req;
  const std::string key = KeyU32(1);
  req.Add(0, "g", key,
          [key](ExecContext& ctx) { return ctx.Insert(key, "v"); });
  const Status st = engine->Submit(std::move(req)).Wait();
  if (GetParam() == SystemDesign::kConventional) {
    EXPECT_TRUE(st.ok()) << st.ToString();
  } else {
    EXPECT_FALSE(st.ok());
  }
  engine->Stop();
}

TEST_P(AsyncApiTest, StatsAdmissionBalancesAfterDrain) {
  constexpr int kTxns = 64;
  std::vector<TxnHandle> handles;
  handles.reserve(kTxns);
  for (int i = 0; i < kTxns; ++i) {
    handles.push_back(engine_->Submit(InsertTxn(
        static_cast<std::uint32_t>(1000 + i), "v")));
  }
  for (auto& h : handles) EXPECT_TRUE(h.Wait().ok());
  const StatsSnapshot stats = engine_->GetStats();
  // admitted == completed + in-flight, and the window has drained.
  EXPECT_EQ(stats.counter("admission.admitted"),
            static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(stats.gauge("admission.inflight"), 0);
  EXPECT_EQ(stats.counter("admission.rejected"), 0u);
  EXPECT_EQ(stats.counter("txn.begins"),
            stats.counter("txn.commits") + stats.counter("txn.aborts"));
  EXPECT_GE(stats.counter("txn.commits"), static_cast<std::uint64_t>(kTxns));
}

// --- Dedicated callback executor (EngineConfig::dedicated_callback_thread)

TEST(CallbackExecutorTest, CallbacksRunOnOneDedicatedThread) {
  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.num_workers = 4;
  config.dedicated_callback_thread = true;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

  constexpr int kTxns = 64;
  std::mutex mu;
  std::vector<std::thread::id> callback_threads;
  std::atomic<int> fired{0};
  std::vector<TxnHandle> handles;
  const std::thread::id submitter = std::this_thread::get_id();
  for (int i = 0; i < kTxns; ++i) {
    TxnRequest req;
    const std::string key = KeyU32(static_cast<std::uint32_t>(i));
    req.Add(0, "t", key, [key](ExecContext& ctx) {
      return ctx.Insert(key, "v");
    });
    TxnOptions options;
    options.on_complete = [&](const Status& st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      std::lock_guard<std::mutex> g(mu);
      callback_threads.push_back(std::this_thread::get_id());
      fired.fetch_add(1);
    };
    handles.push_back(engine->Submit(std::move(req), options));
  }
  for (auto& h : handles) {
    // Wait() must not return before the callback has run.
    const int before_wait = fired.load();
    ASSERT_TRUE(h.Wait().ok());
    (void)before_wait;
  }
  EXPECT_EQ(fired.load(), kTxns);
  std::lock_guard<std::mutex> g(mu);
  ASSERT_EQ(callback_threads.size(), static_cast<std::size_t>(kTxns));
  // All callbacks ran on the same thread, and not on the submitter.
  for (const auto& id : callback_threads) {
    EXPECT_EQ(id, callback_threads.front());
    EXPECT_NE(id, submitter);
  }
  engine->Stop();
}

TEST(CallbackExecutorTest, WaitObservesCallbackCompletion) {
  EngineConfig config;
  config.design = SystemDesign::kConventional;
  config.num_workers = 2;
  config.dedicated_callback_thread = true;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok());
  auto engine = std::move(created).value();
  engine->Start();
  ASSERT_TRUE(engine->CreateTable("t", {""}).ok());

  // A deliberately slow callback: Wait() must block until it finishes.
  std::atomic<bool> callback_done{false};
  TxnRequest req;
  const std::string key = KeyU32(1);
  req.Add(0, "t", key, [key](ExecContext& ctx) {
    return ctx.Insert(key, "v");
  });
  TxnOptions options;
  options.on_complete = [&](const Status&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    callback_done.store(true);
  };
  TxnHandle h = engine->Submit(std::move(req), options);
  ASSERT_TRUE(h.Wait().ok());
  EXPECT_TRUE(callback_done.load())
      << "Wait() returned before the executor ran the callback";
  engine->Stop();
}

TEST(EngineConfigValidationTest, RejectsNonPositiveWorkers) {
  EngineConfig config;
  config.num_workers = 0;
  auto created = CreateEngine(config);
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  config.num_workers = -3;
  EXPECT_FALSE(CreateEngine(config).ok());
}

TEST(EngineConfigValidationTest, RejectsZeroMaxInflight) {
  EngineConfig config;
  config.max_inflight = 0;
  auto created = CreateEngine(config);
  EXPECT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineConfigValidationTest, AcceptsValidConfig) {
  EngineConfig config;
  config.num_workers = 2;
  config.max_inflight = 16;
  auto created = CreateEngine(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_NE(created.value(), nullptr);
}

}  // namespace
}  // namespace plp

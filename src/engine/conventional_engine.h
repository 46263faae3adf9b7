// The conventional shared-everything design: whole transactions execute
// against latched pages with centralized locking, optionally sped up with
// Speculative Lock Inheritance (Section 4.1 (a)). To serve the async
// Submit/TxnHandle API the engine runs a submission thread pool of
// `num_workers` executor threads; each pool thread plays the classic
// "worker thread" of the thread-per-transaction design.
#ifndef PLP_ENGINE_CONVENTIONAL_ENGINE_H_
#define PLP_ENGINE_CONVENTIONAL_ENGINE_H_

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/buffer/page_cleaner.h"
#include "src/engine/engine.h"
#include "src/lock/sli.h"
#include "src/sync/latch.h"
#include "src/sync/mpsc_queue.h"
#include "src/sync/thread_annotations.h"

namespace plp {

class ConventionalEngine : public Engine {
 public:
  explicit ConventionalEngine(EngineConfig config);
  ~ConventionalEngine() override;

  Result<Table*> CreateTable(const std::string& name,
                             std::vector<std::string> boundaries,
                             bool clustered = false) override;

  void Start() override;
  void Stop() override;

 protected:
  /// Queues the transaction for a pool thread. Before Start() (or after
  /// Stop()) the transaction runs inline on the submitting thread, which
  /// preserves the historical synchronous behaviour.
  void SubmitImpl(TxnRequest req, TxnToken token) override;

 private:
  struct Job {
    TxnRequest req;
    TxnToken token;
  };

  /// Runs one transaction to commit or abort on the calling thread.
  Status RunSync(TxnRequest& req);
  void PoolLoop();

  /// Per-executor-thread SLI cache, owned by the engine (so caches cannot
  /// outlive the lock manager they reference); created lazily.
  SliCache* ThreadSli();

  std::atomic<TxnId> next_pseudo_txn_{1ull << 62};
  std::unique_ptr<PageCleaner> cleaner_;

  // Submission pool. The job queue is a client-dispatch queue, not
  // partition message passing, so it is not CS-profiled.
  MpscQueue<Job> jobs_{/*record_cs=*/false};
  std::vector<std::thread> pool_;
  std::atomic<bool> pool_running_{false};

  Mutex sli_mu_;
  std::unordered_map<std::thread::id, std::unique_ptr<SliCache>> sli_caches_
      PLP_GUARDED_BY(sli_mu_);
};

}  // namespace plp

#endif  // PLP_ENGINE_CONVENTIONAL_ENGINE_H_

// AsyncExecutor — admission-controlled, micro-batching front end over
// any TabBinServing.
//
//   AsyncExecutor exec(&serving, {.read_queue_depth = 256});
//   auto f = exec.SubmitSimilarTables({.table_id = "t-3", .k = 5});
//   ...
//   Result<QueryResponse> r = f.get();   // byte-identical to a direct call
//
// Three mechanisms, one per serving-layer pathology:
//
//  * Admission control. Both lanes sit behind fixed-depth BoundedQueues
//    (exec/bounded_queue.h). A full lane rejects the submit IMMEDIATELY
//    with Status::ResourceExhausted — Submit never blocks — so overload
//    sheds at the edge instead of accumulating an unbounded backlog
//    whose tail latency grows until everything times out.
//
//  * Micro-batching. One dispatcher thread drains the read lane,
//    coalescing consecutive same-kind Similar* jobs (up to `max_batch`)
//    into ONE batched ranking pass (TabBinServing::Similar*Batch): one
//    reader-lock hold and one stacked scoring sweep per shard for the
//    whole batch, instead of per-query lock churn. Batches form from
//    what is queued; an idle dispatcher never lingers. It blocks for a
//    head job, takes the same-kind jobs already behind it without
//    waiting, and executes — so a lone query dispatches at once, and
//    under load the jobs that pile up while one batch runs form the
//    next. Answers stay byte-identical to sequential single-query
//    calls — batching shares the lock hold, never the per-query
//    candidate sets or score arithmetic.
//
//  * Write fairness. Writes ride a DEDICATED lane with their own
//    thread. Because reads execute as a serialized stream of batches,
//    every shard's reader count actually reaches zero between batches —
//    the gap a writer needs to acquire a reader-preferring rwlock. This
//    retires the PR-3 workaround of sleep-throttling readers to let
//    writers through: under a 100%-duty read load the write lane still
//    makes progress (tests/exec_test.cc proves it with no sleeps).
//
// Shutdown closes both lanes (subsequent submits are rejected), drains
// every admitted job — each promise is satisfied, never abandoned —
// and joins both threads. The destructor calls it.
#ifndef TABBIN_EXEC_EXECUTOR_H_
#define TABBIN_EXEC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "exec/bounded_queue.h"
#include "exec/job.h"
#include "service/service_types.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace tabbin {

struct ExecutorOptions {
  /// Admission bound of the read lane (queries). A full lane rejects
  /// with ResourceExhausted; it never blocks the submitter.
  size_t read_queue_depth = 256;
  /// Admission bound of the write lane (AddTables / RemoveTable).
  size_t write_queue_depth = 64;
  /// Most Similar* jobs coalesced into one batched ranking pass.
  size_t max_batch = 16;
};

class AsyncExecutor {
 public:
  /// \param serving Borrowed; must outlive the executor.
  explicit AsyncExecutor(TabBinServing* serving, ExecutorOptions options = {});
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  // --- Read lane ---------------------------------------------------------
  // Inline query tables (req.table) are copied into the job; the
  // caller's pointer only needs to outlive the Submit call. Each future
  // resolves to exactly what the matching direct serving call would
  // have returned — or ResourceExhausted if the lane was full.

  std::future<Result<QueryResponse>> SubmitSimilarColumns(
      const ColumnQueryRequest& req);
  std::future<Result<QueryResponse>> SubmitSimilarTables(
      const TableQueryRequest& req);
  std::future<Result<QueryResponse>> SubmitSimilarEntities(
      const EntityQueryRequest& req);
  std::future<Result<AskResponse>> SubmitAsk(const AskRequest& req);

  // --- Write lane --------------------------------------------------------

  std::future<Result<AddReport>> SubmitAddTables(std::vector<Table> tables);
  std::future<Status> SubmitRemoveTable(const std::string& id);

  /// \brief Closes both lanes, drains every admitted job, joins both
  /// threads. Further submits are rejected with ResourceExhausted.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  struct Stats {
    uint64_t submitted = 0;     // jobs admitted to either lane
    uint64_t rejected = 0;      // submits refused (lane full / shut down)
    uint64_t batches = 0;       // batched ranking passes executed
    uint64_t batched_jobs = 0;  // read jobs executed across those passes
    uint64_t writes = 0;        // write jobs executed
    uint64_t max_batch_seen = 0;
  };
  Stats stats() const TABBIN_EXCLUDES(stats_mu_);

  size_t read_queue_capacity() const { return read_queue_.capacity(); }

  // --- Test seams --------------------------------------------------------

  /// \brief Parks the dispatcher before its next dequeue and returns
  /// once it is parked — from then on submitted read jobs stay in the
  /// queue, so tests can fill the lane to capacity deterministically
  /// and observe the overflow rejection. An idle dispatcher is woken
  /// through the read queue (BoundedQueue::Wake), not polled. No-op
  /// after Shutdown.
  void PauseDispatchForTesting() TABBIN_EXCLUDES(pause_mu_);
  void ResumeDispatchForTesting() TABBIN_EXCLUDES(pause_mu_);

 private:
  template <typename Req>
  using BatchFn = std::vector<Result<QueryResponse>> (TabBinServing::*)(
      const std::vector<Req>&) const;

  /// Admits `job` to `lane`, or satisfies its promise with
  /// ResourceExhausted at once; counts either outcome in stats().
  template <typename R>
  std::future<R> Admit(BoundedQueue<Job>* lane, const char* lane_name,
                       std::promise<R> Job::*promise, Job job)
      TABBIN_EXCLUDES(stats_mu_);
  void DispatcherLoop();
  void WriterLoop();
  void ExecuteReadBatch(std::vector<Job> batch);
  /// One coalesced ranking pass: `req` picks the job's request member,
  /// `fn` the matching TabBinServing::Similar*Batch.
  template <typename Req>
  void RunBatch(std::vector<Job>* batch, Req Job::*req, BatchFn<Req> fn);
  void ExecuteWrite(Job job);
  /// Dispatcher-side half of the pause handshake: acks, then blocks
  /// until resumed (or released by Shutdown).
  void PausePoint() TABBIN_EXCLUDES(pause_mu_);

  TabBinServing* serving_;
  const ExecutorOptions options_;

  BoundedQueue<Job> read_queue_;
  BoundedQueue<Job> write_queue_;

  mutable Mutex stats_mu_;
  Stats stats_ TABBIN_GUARDED_BY(stats_mu_);

  Mutex pause_mu_;
  std::condition_variable_any pause_cv_;
  // Atomic so the dispatcher's stop condition (which runs under the
  // QUEUE's mutex) can read it without a second lock; the
  // check-then-wait in PausePoint still happens under pause_mu_, so
  // Pause/Resume/Shutdown flip it under pause_mu_ to rule out a lost
  // wakeup.
  std::atomic<bool> pause_requested_{false};
  bool pause_acked_ TABBIN_GUARDED_BY(pause_mu_) = false;

  Mutex shutdown_mu_;
  bool shutdown_ TABBIN_GUARDED_BY(shutdown_mu_) = false;

  std::thread dispatcher_;
  std::thread writer_;
};

}  // namespace tabbin

#endif  // TABBIN_EXEC_EXECUTOR_H_

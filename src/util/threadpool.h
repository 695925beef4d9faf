// Fixed-size thread pool plus its fan-out helper, FanOut (n jobs, the
// caller helping), and ParallelFor, a chunked index range over FanOut.
#ifndef TABBIN_UTIL_THREADPOOL_H_
#define TABBIN_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace tabbin {

/// \brief A simple fixed-size worker pool.
class ThreadPool {
 public:
  /// \param num_threads Number of workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task and returns a future for its completion.
  ///
  /// Once Shutdown() has run (or is racing with this call and won), no
  /// worker will ever drain the queue again, so instead of enqueueing a
  /// task nobody runs — which would hang the returned future forever —
  /// the task executes inline on the calling thread and the future
  /// comes back already satisfied.
  std::future<void> Submit(std::function<void()> task)
      TABBIN_EXCLUDES(mu_);

  /// \brief Stops accepting queued work and joins every worker.
  /// Tasks already enqueued are drained first. Idempotent; the
  /// destructor calls it. Must not be called from a pool worker.
  void Shutdown() TABBIN_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// \brief True when the calling thread is a pool worker (any pool's).
  static bool InPoolWorker();

  /// \brief Process-wide shared pool (lazily constructed).
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  // _any variant: it waits on the annotated Mutex directly, so the
  // worker's blocked wait stays inside one analyzed MutexLock region.
  std::condition_variable_any cv_;
  std::queue<std::packaged_task<void()>> tasks_ TABBIN_GUARDED_BY(mu_);
  bool shutdown_ TABBIN_GUARDED_BY(mu_) = false;
};

/// \brief Runs fn(i) for every i in [0, n) on the calling thread plus up
/// to pool.num_threads() - 1 pool helpers; returns once all n calls have
/// finished.
///
/// The caller helps: it claims jobs from a shared atomic counter and runs
/// them itself, exactly like the helpers do. It then waits only for jobs
/// that a running helper has already claimed — never for a task still
/// queued in the pool. So FanOut is safe to call while holding locks that
/// queued pool tasks block on, and from inside a pool worker: if no helper
/// ever starts, the caller simply runs every job. Helpers that start after
/// the last job was claimed find nothing to do (the state they touch is
/// shared-owned, so it outlives the call). If fn throws, the first
/// exception is rethrown once every claimed job has finished.
void FanOut(ThreadPool& pool, size_t n,
            const std::function<void(size_t)>& fn);

/// \brief Runs fn(i) for i in [begin, end) across the global pool.
///
/// Runs serially for ranges of at most `grain` indices; otherwise splits
/// the range into up to 2 x num_threads() chunks and runs them through
/// FanOut, so it inherits FanOut's guarantees: safe from a pool worker
/// and under held locks, and the first exception is rethrown only after
/// every chunk has finished.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 size_t grain = 1024);

/// \brief Same, over an explicit pool (tests exercise the fan-out,
/// exception, and nested-worker paths on machines whose global pool
/// has a single worker).
void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn,
                 size_t grain = 1024);

}  // namespace tabbin

#endif  // TABBIN_UTIL_THREADPOOL_H_

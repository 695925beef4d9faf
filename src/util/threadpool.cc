#include "util/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tabbin {

namespace {
// Set for the lifetime of a worker thread (any ThreadPool's).
thread_local bool t_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;  // idempotent: workers already joined (below)
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool ThreadPool::InPoolWorker() { return t_in_pool_worker; }

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> pt(std::move(task));
  std::future<void> fut = pt.get_future();
  {
    MutexLock lock(&mu_);
    if (!shutdown_) {
      tasks_.push(std::move(pt));
      cv_.notify_one();
      return fut;
    }
  }
  // Shutdown already observed: the workers have drained the queue (or
  // are about to, without ever seeing this task). Run inline so the
  // future is satisfied instead of hanging its waiter forever; the
  // packaged_task still routes any exception into the future.
  pt();
  return fut;
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mu_);
      // Explicit predicate loop instead of the lambda-predicate wait
      // overload: a lambda body is analyzed as its own function, which
      // cannot see that the lock is held here.
      while (!shutdown_ && tasks_.empty()) cv_.wait(mu_);
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

namespace {

// What FanOut's caller and its helpers share. Owned by a shared_ptr, so
// a helper that starts after FanOut returned still has a valid counter
// to find exhausted.
struct FanOutState {
  FanOutState(size_t n, const std::function<void(size_t)>* fn)
      : n(n), fn(fn) {}

  const size_t n;
  // Dereferenced only after claiming a job index below n. FanOut does
  // not return before every claimed job has finished, so the caller's
  // function is still alive whenever this is called through.
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  Mutex mu;
  std::condition_variable_any done_cv;
  size_t finished TABBIN_GUARDED_BY(mu) = 0;
  std::exception_ptr error TABBIN_GUARDED_BY(mu);
};

// Claims and runs jobs until none is left.
void RunFanOutJobs(FanOutState& st) {
  for (;;) {
    const size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.n) return;
    std::exception_ptr error;
    try {
      (*st.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
    MutexLock lock(&st.mu);
    if (error && !st.error) st.error = error;
    if (++st.finished == st.n) st.done_cv.notify_all();
  }
}

}  // namespace

void FanOut(ThreadPool& pool, size_t n,
            const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  // The caller is one of the runners, so a pool of P workers gets P - 1
  // helpers: P threads in all, one per core of a default pool.
  const size_t helpers = std::min(n - 1, pool.num_threads() - 1);
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto shared = std::make_shared<FanOutState>(n, &fn);
  for (size_t h = 0; h < helpers; ++h) {
    // The future is dropped on purpose: nobody ever waits on a queued
    // helper, only on jobs a started helper has claimed.
    (void)pool.Submit([shared] { RunFanOutJobs(*shared); });
  }
  FanOutState& st = *shared;
  RunFanOutJobs(st);
  std::exception_ptr error;
  {
    MutexLock lock(&st.mu);
    while (st.finished < n) st.done_cv.wait(st.mu);
    error = st.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  ParallelFor(ThreadPool::Global(), begin, end, fn, grain);
}

void ParallelFor(ThreadPool& pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn, size_t grain) {
  if (end <= begin) return;
  const size_t n = end - begin;
  if (n <= grain) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const size_t chunks =
      std::min(pool.num_threads() * 2, (n + grain - 1) / grain);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  FanOut(pool, chunks, [&](size_t c) {
    const size_t lo = begin + c * chunk_size;
    const size_t hi = std::min(end, lo + chunk_size);
    for (size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace tabbin

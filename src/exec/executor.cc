#include "exec/executor.h"

#include <algorithm>
#include <utility>

namespace tabbin {

namespace {

ExecutorOptions Sanitize(ExecutorOptions o) {
  if (o.max_batch == 0) o.max_batch = 1;
  return o;
}

bool Coalescable(JobKind kind) {
  return kind == JobKind::kSimilarColumns ||
         kind == JobKind::kSimilarTables ||
         kind == JobKind::kSimilarEntities;
}

Status Rejected(const char* lane) {
  return Status::ResourceExhausted(
      std::string(lane) + " lane rejected: queue at capacity or shut down");
}

// Own the inline table: the caller's pointer need not outlive the
// submit. The stored request keeps table = nullptr; the dispatcher
// re-points it at the owned copy when the batch is built.
template <typename Req>
void OwnInlineTable(Job* job, Req* stored) {
  if (stored->table == nullptr) return;
  job->query_table = *stored->table;
  job->has_query_table = true;
  stored->table = nullptr;
}

}  // namespace

AsyncExecutor::AsyncExecutor(TabBinServing* serving, ExecutorOptions options)
    : serving_(serving),
      options_(Sanitize(options)),
      read_queue_(options_.read_queue_depth),
      write_queue_(options_.write_queue_depth) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  writer_ = std::thread([this] { WriterLoop(); });
}

AsyncExecutor::~AsyncExecutor() { Shutdown(); }

void AsyncExecutor::Shutdown() {
  {
    MutexLock lock(&shutdown_mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  // Release a paused dispatcher first: a parked dispatcher cannot drain.
  {
    MutexLock lock(&pause_mu_);
    pause_requested_.store(false, std::memory_order_release);
  }
  pause_cv_.notify_all();
  // Closing stops admissions; both loops drain what was already
  // admitted (every promise gets satisfied), then exit.
  read_queue_.Close();
  write_queue_.Close();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (writer_.joinable()) writer_.join();
}

// --- Submits ---------------------------------------------------------------

template <typename R>
std::future<R> AsyncExecutor::Admit(BoundedQueue<Job>* lane,
                                    const char* lane_name,
                                    std::promise<R> Job::*promise, Job job) {
  std::future<R> fut = (job.*promise).get_future();
  const bool admitted = lane->TryEnqueue(std::move(job));
  {
    MutexLock lock(&stats_mu_);
    ++(admitted ? stats_.submitted : stats_.rejected);
  }
  // A refused job was left untouched, so its promise is still ours.
  if (!admitted) (job.*promise).set_value(Rejected(lane_name));
  return fut;
}

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarColumns(
    const ColumnQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarColumns;
  job.col = req;
  OwnInlineTable(&job, &job.col);
  return Admit(&read_queue_, "read", &Job::query_promise, std::move(job));
}

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarTables(
    const TableQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarTables;
  job.tbl = req;
  OwnInlineTable(&job, &job.tbl);
  return Admit(&read_queue_, "read", &Job::query_promise, std::move(job));
}

std::future<Result<QueryResponse>> AsyncExecutor::SubmitSimilarEntities(
    const EntityQueryRequest& req) {
  Job job;
  job.kind = JobKind::kSimilarEntities;
  job.ent = req;
  OwnInlineTable(&job, &job.ent);
  return Admit(&read_queue_, "read", &Job::query_promise, std::move(job));
}

std::future<Result<AskResponse>> AsyncExecutor::SubmitAsk(
    const AskRequest& req) {
  Job job;
  job.kind = JobKind::kAsk;
  job.ask = req;
  return Admit(&read_queue_, "read", &Job::ask_promise, std::move(job));
}

std::future<Result<AddReport>> AsyncExecutor::SubmitAddTables(
    std::vector<Table> tables) {
  Job job;
  job.kind = JobKind::kAddTables;
  job.add_tables = std::move(tables);
  return Admit(&write_queue_, "write", &Job::add_promise, std::move(job));
}

std::future<Status> AsyncExecutor::SubmitRemoveTable(const std::string& id) {
  Job job;
  job.kind = JobKind::kRemoveTable;
  job.remove_id = id;
  return Admit(&write_queue_, "write", &Job::remove_promise, std::move(job));
}

AsyncExecutor::Stats AsyncExecutor::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

// --- Pause seam ------------------------------------------------------------

void AsyncExecutor::PauseDispatchForTesting() {
  {
    MutexLock lock(&shutdown_mu_);
    if (shutdown_) return;  // dispatcher is gone; nothing to park
  }
  MutexLock lock(&pause_mu_);
  pause_requested_.store(true, std::memory_order_release);
  // An idle dispatcher blocks in the read queue with no timeout; wake
  // it there so it re-checks the request and parks.
  read_queue_.Wake();
  // Wait until the dispatcher is actually parked: from the moment this
  // returns, no read job leaves the queue, so a test can fill the lane
  // to exactly its capacity. Shutdown releases the park, and with it
  // this wait (pause_acked_ then stays false).
  while (!pause_acked_ &&
         pause_requested_.load(std::memory_order_acquire)) {
    pause_cv_.wait(pause_mu_);
  }
}

void AsyncExecutor::ResumeDispatchForTesting() {
  {
    MutexLock lock(&pause_mu_);
    pause_requested_.store(false, std::memory_order_release);
  }
  pause_cv_.notify_all();
}

void AsyncExecutor::PausePoint() {
  if (!pause_requested_.load(std::memory_order_acquire)) return;
  MutexLock lock(&pause_mu_);
  pause_acked_ = true;
  pause_cv_.notify_all();
  while (pause_requested_.load(std::memory_order_acquire)) {
    pause_cv_.wait(pause_mu_);
  }
  pause_acked_ = false;
}

// --- Dispatcher (read lane) ------------------------------------------------

void AsyncExecutor::DispatcherLoop() {
  const auto paused = [this] {
    return pause_requested_.load(std::memory_order_acquire);
  };
  for (;;) {
    PausePoint();
    Job head;
    // Untimed: a submit, Close, or a pause request's Wake ends the
    // wait. A pending pause must not let the dispatcher consume the job
    // that woke it, so the stop condition wins over a queued job.
    const DequeueIf got = read_queue_.WaitDequeueUnless(paused, &head);
    if (got == DequeueIf::kClosed) return;  // closed AND drained
    if (got != DequeueIf::kPopped) continue;  // pause pending

    std::vector<Job> batch;
    batch.push_back(std::move(head));
    if (Coalescable(batch.front().kind)) {
      // Take the same-kind jobs already queued, never waiting for more.
      // An incompatible job at the front ends the batch and stays
      // queued as the next head — jobs are never reordered, so a caller
      // that observed response A before submitting B still sees A's
      // effects ordered before B.
      const JobKind kind = batch.front().kind;
      const auto same_kind = [kind](const Job& j) { return j.kind == kind; };
      while (batch.size() < options_.max_batch) {
        Job next;
        if (read_queue_.TryDequeueIf(same_kind, &next) != DequeueIf::kPopped) {
          break;
        }
        batch.push_back(std::move(next));
      }
    }
    ExecuteReadBatch(std::move(batch));
    // Batches execute strictly one after another, so every shard's
    // reader count returns to zero between batches — the gap a writer
    // on the dedicated lane needs to acquire a reader-preferring
    // rwlock under 100%-duty read load.
  }
}

template <typename Req>
void AsyncExecutor::RunBatch(std::vector<Job>* batch, Req Job::*req,
                             BatchFn<Req> fn) {
  std::vector<Req> reqs;
  reqs.reserve(batch->size());
  for (Job& j : *batch) {
    if (j.has_query_table) (j.*req).table = &j.query_table;
    reqs.push_back(j.*req);
  }
  std::vector<Result<QueryResponse>> results = (serving_->*fn)(reqs);
  for (size_t i = 0; i < batch->size(); ++i) {
    (*batch)[i].query_promise.set_value(std::move(results[i]));
  }
}

void AsyncExecutor::ExecuteReadBatch(std::vector<Job> batch) {
  if (Coalescable(batch.front().kind)) {
    // Counted BEFORE any promise is satisfied: a caller that observed
    // its future resolve must also observe the batch in stats().
    MutexLock lock(&stats_mu_);
    ++stats_.batches;
    stats_.batched_jobs += batch.size();
    stats_.max_batch_seen =
        std::max<uint64_t>(stats_.max_batch_seen, batch.size());
  }
  switch (batch.front().kind) {
    case JobKind::kSimilarColumns:
      RunBatch(&batch, &Job::col, &TabBinServing::SimilarColumnsBatch);
      break;
    case JobKind::kSimilarTables:
      RunBatch(&batch, &Job::tbl, &TabBinServing::SimilarTablesBatch);
      break;
    case JobKind::kSimilarEntities:
      RunBatch(&batch, &Job::ent, &TabBinServing::SimilarEntitiesBatch);
      break;
    case JobKind::kAsk:
      batch.front().ask_promise.set_value(serving_->Ask(batch.front().ask));
      break;
    case JobKind::kAddTables:
    case JobKind::kRemoveTable:
      break;  // write kinds never enter the read lane
  }
}

// --- Writer lane -----------------------------------------------------------

void AsyncExecutor::WriterLoop() {
  for (;;) {
    std::optional<Job> job = write_queue_.WaitDequeue();
    if (!job.has_value()) return;  // closed AND drained
    ExecuteWrite(std::move(*job));
  }
}

void AsyncExecutor::ExecuteWrite(Job job) {
  {
    // Before the promise, for the same visibility reason as the read
    // batch counters.
    MutexLock lock(&stats_mu_);
    ++stats_.writes;
  }
  switch (job.kind) {
    case JobKind::kAddTables:
      // The encode forward passes run HERE, on the writer thread —
      // never on the dispatcher, so a heavy insert cannot stall the
      // read lane's batching cadence.
      job.add_promise.set_value(serving_->AddTables(job.add_tables));
      break;
    case JobKind::kRemoveTable:
      job.remove_promise.set_value(serving_->RemoveTable(job.remove_id));
      break;
    default:
      break;  // read kinds never enter the write lane
  }
}

}  // namespace tabbin

// Tests for the async executor stack (src/exec/): BoundedQueue
// admission and dequeue semantics, byte-identity of single and
// coalesced answers against direct serving calls (1 and 8 shards),
// batches that form only from queued jobs, an event-driven pause,
// deterministic admission-overflow rejection, writer-lane progress
// under 100%-duty readers with NO sleep throttling, and
// drain-on-shutdown. Run under ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/corpus_gen.h"
#include "exec/bounded_queue.h"
#include "exec/executor.h"
#include "service/sharded_service.h"
#include "service/table_service.h"

namespace tabbin {
namespace {

TabBiNConfig TinyConfig() {
  TabBiNConfig cfg;
  cfg.hidden = 24;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 48;
  cfg.max_seq_len = 96;
  return cfg;
}

const LabeledCorpus& SharedCorpus() {
  static const LabeledCorpus* corpus = [] {
    GeneratorOptions gen;
    gen.num_tables = 18;
    gen.seed = 23;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
}

/// A loaded serving instance: 1 shard -> TabBinService, else sharded.
std::unique_ptr<TabBinServing> MakeLoadedServing(int shards) {
  std::unique_ptr<TabBinServing> svc;
  if (shards <= 1) {
    svc = std::make_unique<TabBinService>(SharedSystem());
  } else {
    svc = std::make_unique<ShardedTabBinService>(SharedSystem(), shards);
  }
  auto report = svc->AddTables(SharedCorpus().corpus.tables);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return svc;
}

// Full byte-identity: every field of every match, plus the candidate
// count, must agree — "close enough" would hide a changed candidate
// set or a reordered tie.
void ExpectIdenticalResponse(const QueryResponse& a, const QueryResponse& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].table_id, b.matches[i].table_id);
    EXPECT_EQ(a.matches[i].caption, b.matches[i].caption);
    EXPECT_EQ(a.matches[i].col, b.matches[i].col);
    EXPECT_EQ(a.matches[i].row, b.matches[i].row);
    EXPECT_EQ(a.matches[i].entity, b.matches[i].entity);
    EXPECT_EQ(a.matches[i].score, b.matches[i].score);  // bitwise
  }
}

void ExpectIdenticalResult(const Result<QueryResponse>& a,
                           const Result<QueryResponse>& b) {
  ASSERT_EQ(a.ok(), b.ok()) << a.status().ToString() << " vs "
                            << b.status().ToString();
  if (!a.ok()) {
    EXPECT_EQ(a.status(), b.status());
    return;
  }
  ExpectIdenticalResponse(a.value(), b.value());
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueueTest, TryEnqueueShedsAtCapacityWithoutBlocking) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryEnqueue(1));
  EXPECT_TRUE(q.TryEnqueue(2));
  EXPECT_FALSE(q.TryEnqueue(3));  // full: immediate false, no block
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.WaitDequeue().value(), 1);
  EXPECT_TRUE(q.TryEnqueue(4));  // capacity freed
  EXPECT_EQ(q.WaitDequeue().value(), 2);
  EXPECT_EQ(q.WaitDequeue().value(), 4);
}

TEST(BoundedQueueTest, CloseStopsAdmissionButDrainsAdmitted) {
  BoundedQueue<int> q(8);
  EXPECT_TRUE(q.TryEnqueue(1));
  EXPECT_TRUE(q.TryEnqueue(2));
  q.Close();
  q.Close();  // idempotent
  EXPECT_FALSE(q.TryEnqueue(3));
  EXPECT_EQ(q.WaitDequeue().value(), 1);  // admitted items still delivered
  EXPECT_EQ(q.WaitDequeue().value(), 2);
  EXPECT_FALSE(q.WaitDequeue().has_value());  // drained: nullopt, no block
}

TEST(BoundedQueueTest, TryDequeueIfHonorsPredicateWithoutBlocking) {
  BoundedQueue<int> q(8);
  int out = 0;
  // Empty queue: reports kEmpty at once instead of waiting for a job.
  EXPECT_EQ(q.TryDequeueIf([](int) { return true; }, &out),
            DequeueIf::kEmpty);
  ASSERT_TRUE(q.TryEnqueue(5));
  ASSERT_TRUE(q.TryEnqueue(6));
  // Incompatible front stays put and ends the attempt.
  EXPECT_EQ(q.TryDequeueIf([](int v) { return v % 2 == 0; }, &out),
            DequeueIf::kRejected);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.TryDequeueIf([](int v) { return v == 5; }, &out),
            DequeueIf::kPopped);
  EXPECT_EQ(out, 5);
  q.Close();
  EXPECT_EQ(q.TryDequeueIf([](int v) { return v == 6; }, &out),
            DequeueIf::kPopped);  // close still drains
  EXPECT_EQ(out, 6);
  EXPECT_EQ(q.TryDequeueIf([](int) { return true; }, &out),
            DequeueIf::kClosed);
}

// The blocking dequeue has no deadline: only an item, Close, or a stop
// condition announced through Wake ends it. A lost wakeup would hang
// this test rather than be masked by a timed poll.
TEST(BoundedQueueTest, WaitDequeueUnlessEndsOnItemStopOrClose) {
  BoundedQueue<int> q(8);
  std::atomic<bool> stop{false};
  const auto stopped = [&stop] { return stop.load(); };
  int out = 0;

  // A blocked consumer takes the next admitted item.
  std::thread consumer([&] {
    EXPECT_EQ(q.WaitDequeueUnless(stopped, &out), DequeueIf::kPopped);
  });
  ASSERT_TRUE(q.TryEnqueue(7));
  consumer.join();
  EXPECT_EQ(out, 7);

  // A blocked consumer on an empty queue returns once stop holds.
  consumer = std::thread([&] {
    EXPECT_EQ(q.WaitDequeueUnless(stopped, &out), DequeueIf::kRejected);
  });
  stop.store(true);
  q.Wake();
  consumer.join();

  // The stop condition wins over a queued item: nothing is taken.
  ASSERT_TRUE(q.TryEnqueue(8));
  EXPECT_EQ(q.WaitDequeueUnless(stopped, &out), DequeueIf::kRejected);
  EXPECT_EQ(q.size(), 1u);
  stop.store(false);
  EXPECT_EQ(q.WaitDequeueUnless(stopped, &out), DequeueIf::kPopped);
  EXPECT_EQ(out, 8);

  // Close releases a blocked consumer with kClosed once drained.
  consumer = std::thread([&] {
    EXPECT_EQ(q.WaitDequeueUnless(stopped, &out), DequeueIf::kClosed);
  });
  q.Close();
  consumer.join();
}

// --- Byte-identity through the executor ------------------------------------

TEST(AsyncExecutorTest, SingleQueriesByteIdenticalToDirectCalls) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const auto& tables = SharedCorpus().corpus.tables;
  for (size_t i = 0; i < 4; ++i) {
    const std::string id = tables[i].id();
    ColumnQueryRequest creq{id, nullptr, 0, 5};
    TableQueryRequest treq{id, nullptr, 5};
    EntityQueryRequest ereq{id, nullptr, 0, 0, 5};
    ExpectIdenticalResult(exec.SubmitSimilarColumns(creq).get(),
                          svc->SimilarColumns(creq));
    ExpectIdenticalResult(exec.SubmitSimilarTables(treq).get(),
                          svc->SimilarTables(treq));
    ExpectIdenticalResult(exec.SubmitSimilarEntities(ereq).get(),
                          svc->SimilarEntities(ereq));
  }
  // Ask routes through the executor unbatched but still async.
  AskRequest ask{"overall survival months", 3};
  auto via_exec = exec.SubmitAsk(ask).get();
  auto direct = svc->Ask(ask);
  ASSERT_TRUE(via_exec.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_exec.value().answer, direct.value().answer);
  ASSERT_EQ(via_exec.value().tables.size(), direct.value().tables.size());
  for (size_t i = 0; i < direct.value().tables.size(); ++i) {
    EXPECT_EQ(via_exec.value().tables[i].table_id,
              direct.value().tables[i].table_id);
    EXPECT_EQ(via_exec.value().tables[i].score,
              direct.value().tables[i].score);
  }
  // Invalid requests come back as the same per-query error.
  ColumnQueryRequest bad{tables[0].id(), nullptr, 0, 0};  // k == 0
  auto bad_exec = exec.SubmitSimilarColumns(bad).get();
  auto bad_direct = svc->SimilarColumns(bad);
  EXPECT_FALSE(bad_exec.ok());
  EXPECT_EQ(bad_exec.status(), bad_direct.status());
}

TEST(AsyncExecutorTest, CoalescedBatchesByteIdenticalToSequential) {
  for (int shards : {1, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto svc = MakeLoadedServing(shards);
    AsyncExecutor exec(svc.get());
    const auto& tables = SharedCorpus().corpus.tables;

    // Park the dispatcher, queue 12 same-kind jobs, then release: they
    // coalesce into one (or few) batched ranking passes.
    exec.PauseDispatchForTesting();
    std::vector<TableQueryRequest> reqs;
    std::vector<std::future<Result<QueryResponse>>> futs;
    for (size_t i = 0; i < 12; ++i) {
      TableQueryRequest req{tables[i % tables.size()].id(), nullptr,
                            3 + static_cast<int>(i % 4)};
      reqs.push_back(req);
      futs.push_back(exec.SubmitSimilarTables(req));
    }
    exec.ResumeDispatchForTesting();
    for (size_t i = 0; i < reqs.size(); ++i) {
      ExpectIdenticalResult(futs[i].get(), svc->SimilarTables(reqs[i]));
    }
    const auto stats = exec.stats();
    EXPECT_GE(stats.batches, 1u);
    EXPECT_EQ(stats.batched_jobs, 12u);
    // Coalescing must actually have happened — not 12 batches of 1.
    EXPECT_GT(stats.max_batch_seen, 1u);

    // Interleaved kinds split into per-kind batches at the boundaries
    // (jobs are never reordered) and still answer identically.
    exec.PauseDispatchForTesting();
    std::vector<ColumnQueryRequest> creqs;
    std::vector<EntityQueryRequest> ereqs;
    std::vector<std::future<Result<QueryResponse>>> cfuts, efuts;
    for (size_t i = 0; i < 4; ++i) {
      ColumnQueryRequest c{tables[i].id(), nullptr, 0, 4};
      EntityQueryRequest e{tables[i].id(), nullptr, 0, 0, 4};
      creqs.push_back(c);
      ereqs.push_back(e);
      cfuts.push_back(exec.SubmitSimilarColumns(c));
      efuts.push_back(exec.SubmitSimilarEntities(e));
    }
    exec.ResumeDispatchForTesting();
    for (size_t i = 0; i < 4; ++i) {
      ExpectIdenticalResult(cfuts[i].get(), svc->SimilarColumns(creqs[i]));
      ExpectIdenticalResult(efuts[i].get(), svc->SimilarEntities(ereqs[i]));
    }
  }
}

// Batches form only from what is queued: a query submitted after the
// previous one was answered finds the lane empty and dispatches alone,
// without waiting for company.
TEST(AsyncExecutorTest, SequentialSubmitsDispatchSingly) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const auto& tables = SharedCorpus().corpus.tables;
  for (size_t i = 0; i < 10; ++i) {
    TableQueryRequest req{tables[i % tables.size()].id(), nullptr, 4};
    ExpectIdenticalResult(exec.SubmitSimilarTables(req).get(),
                          svc->SimilarTables(req));
  }
  const auto stats = exec.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.batches, stats.submitted);
  EXPECT_EQ(stats.max_batch_seen, 1u);
}

// A backlog is taken max_batch at a time: with every job queued before
// the dispatcher runs, 10 jobs at max_batch 4 form exactly 4 + 4 + 2.
TEST(AsyncExecutorTest, PrefilledLaneDrainsInBatchesOfMaxBatch) {
  auto svc = MakeLoadedServing(1);
  ExecutorOptions opts;
  opts.max_batch = 4;
  AsyncExecutor exec(svc.get(), opts);
  const auto& tables = SharedCorpus().corpus.tables;
  exec.PauseDispatchForTesting();
  std::vector<ColumnQueryRequest> reqs;
  std::vector<std::future<Result<QueryResponse>>> futs;
  for (size_t i = 0; i < 10; ++i) {
    ColumnQueryRequest req{tables[i % tables.size()].id(), nullptr, 0, 3};
    reqs.push_back(req);
    futs.push_back(exec.SubmitSimilarColumns(req));
  }
  exec.ResumeDispatchForTesting();
  for (size_t i = 0; i < reqs.size(); ++i) {
    ExpectIdenticalResult(futs[i].get(), svc->SimilarColumns(reqs[i]));
  }
  const auto stats = exec.stats();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.batched_jobs, 10u);
  EXPECT_EQ(stats.max_batch_seen, 4u);
}

// The dispatcher of an idle executor blocks in the read queue with no
// timeout, so a pause must reach it through the queue's wakeup. Each
// round first lets it go idle (a query answered, nothing queued), then
// pauses and resumes; with a lost wakeup this hangs instead of passing.
TEST(AsyncExecutorTest, PauseAndResumeOnIdleExecutorAreEventDriven) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(exec.SubmitSimilarTables({id, nullptr, 3}).get().ok());
    exec.PauseDispatchForTesting();
    exec.ResumeDispatchForTesting();
  }
  // Pausing with the lane already idle, then resuming, still answers.
  exec.PauseDispatchForTesting();
  exec.ResumeDispatchForTesting();
  EXPECT_TRUE(exec.SubmitSimilarTables({id, nullptr, 3}).get().ok());
  EXPECT_EQ(exec.stats().batches, 21u);
}

TEST(AsyncExecutorTest, InlineQueryTablesAreCopiedIntoTheJob) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  exec.PauseDispatchForTesting();
  std::future<Result<QueryResponse>> fut;
  Result<QueryResponse> direct = Status::Internal("unset");
  {
    // The inline table dies before the dispatcher ever runs the job;
    // the executor must have copied it at submit time.
    Table probe = SharedCorpus().corpus.tables[2];
    probe.set_caption("ephemeral inline probe");
    direct = svc->SimilarTables({"", &probe, 5});
    fut = exec.SubmitSimilarTables({"", &probe, 5});
  }
  exec.ResumeDispatchForTesting();
  ExpectIdenticalResult(fut.get(), direct);
}

// --- Admission control ------------------------------------------------------

TEST(AsyncExecutorTest, OverflowRejectsImmediatelyWithResourceExhausted) {
  auto svc = MakeLoadedServing(1);
  ExecutorOptions opts;
  opts.read_queue_depth = 4;
  AsyncExecutor exec(svc.get(), opts);
  // Once the pause is acked no job leaves the queue, so exactly
  // `depth` submits are admitted and the next MUST be shed.
  exec.PauseDispatchForTesting();
  const std::string id = SharedCorpus().corpus.tables[0].id();
  std::vector<std::future<Result<QueryResponse>>> admitted;
  for (size_t i = 0; i < 4; ++i) {
    admitted.push_back(exec.SubmitSimilarTables({id, nullptr, 3}));
  }
  auto shed = exec.SubmitSimilarTables({id, nullptr, 3});
  // The rejection is synchronous — the future is ready the moment
  // Submit returns, without waiting on the (paused!) dispatcher.
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto r = shed.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exec.stats().rejected, 1u);
  // The admitted jobs were not harmed by the shed one.
  exec.ResumeDispatchForTesting();
  for (auto& f : admitted) {
    auto ar = f.get();
    EXPECT_TRUE(ar.ok()) << ar.status().ToString();
  }
  EXPECT_EQ(exec.stats().submitted, 4u);
}

// --- Write fairness ---------------------------------------------------------

// The PR-3 starvation scenario, now with NO sleep throttling anywhere:
// readers submit queries at 100% duty while a writer streams insert
// batches through the dedicated write lane. Because the dispatcher
// serializes read batches, every shard's reader count reaches zero
// between batches, and the writer finishes — pre-executor, 100%-duty
// readers on a reader-preferring rwlock could starve writers
// indefinitely (the old test had to sleep 200us per read to let the
// writer through).
TEST(AsyncExecutorTest, WriterLaneProgressesUnderFullDutyReaders) {
  const auto& tables = SharedCorpus().corpus.tables;
  const size_t base = 8;  // always-live probe set; the rest streams in
  auto svc =
      std::make_unique<ShardedTabBinService>(SharedSystem(), /*shards=*/4);
  ASSERT_TRUE(svc->AddTables(std::vector<Table>(tables.begin(),
                                                tables.begin() + base))
                  .ok());
  AsyncExecutor exec(svc.get());

  std::atomic<bool> writes_done{false};
  std::atomic<uint64_t> reads_ok{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t) % base;
      while (!writes_done.load(std::memory_order_acquire)) {
        auto r =
            exec.SubmitSimilarTables({tables[i].id(), nullptr, 3}).get();
        // Full-duty load may legitimately shed at the admission edge;
        // any other failure is a real bug.
        if (r.ok()) {
          reads_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        }
        i = (i + 1) % base;
      }
    });
  }

  // Stream the remaining tables through the write lane, one batch at a
  // time; every batch must complete despite the full-duty read load.
  uint64_t write_batches = 0;
  for (size_t i = base; i < tables.size(); i += 2) {
    const size_t end = std::min(i + 2, tables.size());
    auto report = exec.SubmitAddTables(std::vector<Table>(
                                           tables.begin() + i,
                                           tables.begin() + end))
                      .get();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ++write_batches;
  }
  writes_done.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_EQ(svc->NumLiveTables(), tables.size());
  EXPECT_GT(reads_ok.load(), 0u);
  EXPECT_EQ(exec.stats().writes, write_batches);
}

// --- Shutdown ---------------------------------------------------------------

TEST(AsyncExecutorTest, ShutdownDrainsAdmittedJobsThenRejects) {
  auto svc = MakeLoadedServing(1);
  auto exec = std::make_unique<AsyncExecutor>(svc.get());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  exec->PauseDispatchForTesting();
  std::vector<std::future<Result<QueryResponse>>> futs;
  for (size_t i = 0; i < 6; ++i) {
    futs.push_back(exec->SubmitSimilarTables({id, nullptr, 3}));
  }
  // Shutdown releases the park, drains all six, and only then joins —
  // an admitted job's promise is never abandoned.
  exec->Shutdown();
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    auto r = f.get();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  }
  // Post-shutdown submits shed immediately on both lanes.
  auto late_read = exec->SubmitSimilarTables({id, nullptr, 3}).get();
  EXPECT_EQ(late_read.status().code(), StatusCode::kResourceExhausted);
  auto late_write = exec->SubmitRemoveTable(id).get();
  EXPECT_EQ(late_write.code(), StatusCode::kResourceExhausted);
  exec->Shutdown();  // idempotent
}

TEST(AsyncExecutorTest, RemoveTableRoutesThroughWriteLane) {
  auto svc = MakeLoadedServing(1);
  AsyncExecutor exec(svc.get());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  EXPECT_TRUE(exec.SubmitRemoveTable(id).get().ok());
  EXPECT_EQ(exec.SubmitRemoveTable(id).get().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc->NumLiveTables(), SharedCorpus().corpus.tables.size() - 1);
}

}  // namespace
}  // namespace tabbin

// perfbench — serving benchmark for the TabBiN library.
//
//   perfbench --workload serve_lsh --seed 1 --seconds 20 --trace 0
//             [--workdir .bench_build]
//
// One process runs one workload through five phases:
//   1. build the corpus (setup_reps times; setup_s is the median);
// then, in every round:
//   2. stored-id reads through the AsyncExecutor: an open loop at the
//      workload's fixed rate, one client with one read in flight, and a
//      closed loop of two clients;
//   3. inline-table reads and Ask through the executor;
//   4. a stream of ASCII-escaped JSON tables parsed and sent through the
//      executor's write lane, with RemoveTable calls and a Compact,
//      while inline reads and Ask run beside it;
//   5. Saves of new generations, each followed by cold opens.
// Every answer is checked (checks.h). A failed check prints the reason to
// stderr and exits 1 without a result. The last stdout line is one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics (from
// spans the benchmark records around each call into a layer) with
// --trace 1.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/encoder_engine.h"
#include "core/tabbin.h"
#include "exec/executor.h"
#include "index/hnsw_index.h"
#include "inputs.h"
#include "io/json.h"
#include "io/table_io.h"
#include "service/sharded_service.h"
#include "service/table_service.h"
#include "store/generation.h"
#include "store/paged_snapshot.h"
#include "tasks/lsh.h"
#include "tensor/kernels.h"
#include "text/wordpiece.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tabbin::AskResponse;
using tabbin::AsyncExecutor;
using tabbin::QueryResponse;
using tabbin::Result;
using tabbin::Table;
using tabbin::TabBinServing;

// The core count of the reference host: threads for the off-the-clock
// set-up work, and core warmers.
constexpr int kClients = 4;
// Closed-loop clients. With four, the clients, the dispatcher and the
// shard pool's workers outnumber the cores, and the closed-loop rate
// moved by up to 40 % with the host's load; two keep the executor busy
// and coalescing without that.
constexpr int kClosedClients = 2;

std::string g_run_dir;  // removed on every exit path

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fflush(stderr);
  if (!g_run_dir.empty()) {
    std::error_code ec;
    fs::remove_all(g_run_dir, ec);
  }
  std::_Exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const tabbin::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// CPU ticks of the whole machine from /proc/stat: {stolen, total}. A
// virtual machine's host takes "stolen" time from its cores; the run
// prints the stolen share so a slow run can be told from a slow program.
std::pair<double, double> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Latencies of one kind of request, kept per round and per ReadKind.
//
// Median() is each kind's median over rounds of its per-round medians,
// weighted by the kind's share of the requests. The kinds' costs differ
// by up to 10x, so the median of pooled latencies would sit wherever the
// kinds' ranges meet and jump between them with the exact mix. And the
// host slows down for stretches of 0.1-1 s: a pooled median moves with
// every slow round, a median over rounds only once half of them are slow.
class Latencies {
 public:
  void Add(int round, ReadKind kind, double ms) {
    if (by_round_.size() <= static_cast<size_t>(round)) {
      by_round_.resize(static_cast<size_t>(round) + 1);
    }
    by_round_[static_cast<size_t>(round)][static_cast<size_t>(kind)].push_back(ms);
  }

  double Median() const {
    double sum = 0;
    size_t n = 0;
    for (size_t kind = 0; kind < 4; ++kind) {
      std::vector<double> medians;
      size_t count = 0;
      for (const auto& round : by_round_) {
        if (round[kind].empty()) continue;
        medians.push_back(perfbench::Median(round[kind]));
        count += round[kind].size();
      }
      if (count == 0) continue;
      sum += perfbench::Median(medians) * static_cast<double>(count);
      n += count;
    }
    return n == 0 ? NAN : sum / static_cast<double>(n);
  }

 private:
  std::vector<std::array<std::vector<double>, 4>> by_round_;
};

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? NAN : s / static_cast<double>(v.size());
}

struct Args {
  std::string workload;
  std::string workdir = ".bench_build";
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--workdir") {
      a->workdir = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(val.c_str(), &end, 10));
      if (*end != '\0' || a->seconds < 1) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

tabbin::TabBiNConfig ModelConfig() {
  // The CPU-scale geometry of the repository's benchmarks; the models are
  // not pre-trained, which leaves the serving work unchanged.
  tabbin::TabBiNConfig cfg;
  cfg.hidden = 36;
  cfg.num_layers = 1;
  cfg.num_heads = 2;
  cfg.intermediate = 72;
  cfg.max_seq_len = 96;
  return cfg;
}

Table QuestionTable(const std::string& question) {
  // How the serving layer embeds an Ask question: a one-cell table.
  Table t(1, 1, /*hmd_rows=*/0, /*vmd_cols=*/0);
  t.SetValue(0, 0, tabbin::Value::String(question));
  t.set_caption(question);
  return t;
}

// Keeps every core awake for the whole run. On a virtual machine, a core
// that idles is halted, and the first work after the halt runs several
// times slower for about a second (measured on the reference host: four
// spinning threads took 0.74 s instead of 0.19 s after 3 s of idleness).
// Open-loop reads leave cores idle between requests, so that penalty
// would land on latencies at random. The spinners run under SCHED_IDLE:
// the kernel runs them only when no other thread of any process wants
// the core, and preempts them at once when one does.
class CoreWarmer {
 public:
  CoreWarmer() {
    for (int i = 0; i < kClients; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
          return;  // never compete with the measured threads
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~CoreWarmer() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  CoreWarmer(const CoreWarmer&) = delete;
  CoreWarmer& operator=(const CoreWarmer&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// One request in flight and, once collected, its answer.
struct Answer {
  const ReadReq* req = nullptr;
  int64_t submitted_ns = 0;  // scheduled send time in the open loop
  double latency_ms = 0;
  std::string error;  // non-empty when the call returned an error
  QueryResponse q;
  AskResponse a;
  std::future<Result<QueryResponse>> fq;
  std::future<Result<AskResponse>> fa;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        rounds_(std::max(1, 1000 * args.seconds / w.round_ms)),
        tracer_(args.trace) {}

  void Main();

 private:
  // --- request plumbing -------------------------------------------------
  tabbin::ColumnQueryRequest ColumnReq(const ReadReq& r) const {
    return {r.table_id, InlineTable(r), r.col, r.k};
  }
  tabbin::TableQueryRequest TableReq(const ReadReq& r) const {
    return {r.table_id, InlineTable(r), r.k};
  }
  tabbin::EntityQueryRequest EntityReq(const ReadReq& r) const {
    return {r.table_id, InlineTable(r), r.row, r.col, r.k};
  }
  const Table* InlineTable(const ReadReq& r) const {
    return r.inline_table < 0
               ? nullptr
               : &in_.inline_tables[static_cast<size_t>(r.inline_table)];
  }

  void Submit(AsyncExecutor& ex, const ReadReq& r, Answer* out) const {
    out->req = &r;
    switch (r.kind) {
      case ReadKind::kColumn:
        out->fq = ex.SubmitSimilarColumns(ColumnReq(r));
        break;
      case ReadKind::kTable:
        out->fq = ex.SubmitSimilarTables(TableReq(r));
        break;
      case ReadKind::kEntity:
        out->fq = ex.SubmitSimilarEntities(EntityReq(r));
        break;
      case ReadKind::kAsk:
        out->fa = ex.SubmitAsk({r.question, r.k});
        break;
    }
  }

  static void Collect(Answer* out) {
    if (out->req->kind == ReadKind::kAsk) {
      auto r = out->fa.get();
      if (r.ok()) out->a = std::move(r).value();
      else out->error = r.status().ToString();
    } else {
      auto r = out->fq.get();
      if (r.ok()) out->q = std::move(r).value();
      else out->error = r.status().ToString();
    }
  }

  Answer Direct(const TabBinServing& s, const ReadReq& r) const {
    Answer out;
    out.req = &r;
    Result<QueryResponse> q = QueryResponse{};
    switch (r.kind) {
      case ReadKind::kColumn:
        q = s.SimilarColumns(ColumnReq(r));
        break;
      case ReadKind::kTable:
        q = s.SimilarTables(TableReq(r));
        break;
      case ReadKind::kEntity:
        q = s.SimilarEntities(EntityReq(r));
        break;
      case ReadKind::kAsk: {
        auto a = s.Ask({r.question, r.k});
        if (a.ok()) out.a = std::move(a).value();
        else out.error = a.status().ToString();
        return out;
      }
    }
    if (q.ok()) out.q = std::move(q).value();
    else out.error = q.status().ToString();
    return out;
  }

  static const char* DirectSpanName(ReadKind kind) {
    switch (kind) {
      case ReadKind::kColumn:
        return "service.columns";
      case ReadKind::kTable:
        return "service.tables";
      case ReadKind::kEntity:
        return "service.entities";
      case ReadKind::kAsk:
        return "service.ask";
    }
    return "service.?";
  }

  std::vector<float> QueryVector(const ReadReq& r) {
    if (r.kind == ReadKind::kAsk) {
      const tabbin::TabBiNSystem& sys = svc_->system();
      return sys.TableComposite1(sys.EncodeAll(QuestionTable(r.question)));
    }
    if (r.inline_table >= 0) {
      const BookEntry& e = inline_book_[static_cast<size_t>(r.inline_table)];
      switch (r.kind) {
        case ReadKind::kColumn:
          return e.cols.at(r.col);
        case ReadKind::kEntity:
          return e.ents.at({r.row, r.col});
        default:
          return e.table;
      }
    }
    const BookEntry& e = book_.by_id.at(r.table_id);
    switch (r.kind) {
      case ReadKind::kColumn:
        return e.cols.at(r.col);
      case ReadKind::kEntity:
        return e.ents.at({r.row, r.col});
      default:
        return e.table;
    }
  }

  void Check(const Answer& a, const char* phase) {
    if (!a.error.empty()) Die(std::string(phase) + ": call failed: " + a.error);
    const std::vector<float> qvec = QueryVector(*a.req);
    const std::string err =
        a.req->kind == ReadKind::kAsk
            ? CheckAsk(book_, *a.req, qvec, a.a, a.submitted_ns)
            : CheckQuery(book_, *a.req, qvec, a.q, a.submitted_ns);
    if (!err.empty()) Die(std::string(phase) + ": " + err);
  }

  void CheckSameAsDirect(const Answer& a, const char* phase) {
    const Answer d = Direct(*svc_, *a.req);
    const bool same = a.req->kind == ReadKind::kAsk ? SameAsk(a.a, d.a)
                                                   : SameQuery(a.q, d.q);
    if (!d.error.empty() || !same) {
      Die(std::string(phase) + ": executor answer differs from direct call");
    }
  }

  // Operations attempted and failed, per phase, summed over rounds.
  void Count(const std::string& phase, int64_t attempted, int64_t failed) {
    auto it = std::find_if(counts_.begin(), counts_.end(),
                           [&](const PhaseCount& c) { return c.phase == phase; });
    if (it == counts_.end()) it = counts_.insert(counts_.end(), {phase, 0, 0});
    it->attempted += attempted;
    it->failed += failed;
  }

  // --- phases ---------------------------------------------------------
  std::unique_ptr<TabBinServing> BuildService(const std::string& tag);
  void Setup();
  void ServeStored(int round);
  std::vector<Answer> OpenLoop(size_t begin, size_t n);
  std::vector<Answer> OneInFlight(int round, size_t begin, size_t n);
  double ClosedLoop(size_t begin, size_t n, Tracer* tracer,
                    std::vector<Answer>* out);
  double Recall(const std::vector<const Answer*>& answers);
  void ServeInline(int round);
  void Ingest(int round);
  void VerifyIngested(const IngestDoc& doc, const Table& served,
                      int64_t* failed);
  void SaveReopen();
  void LayerProbes();
  void Report();

  struct PhaseCount {
    std::string phase;
    int64_t attempted;
    int64_t failed;
  };
  // Per-window and per-operation figures, collected over all rounds; each
  // end-to-end metric is their median.
  struct Samples {
    std::vector<double> open_ms;  // open-loop latencies, in send order
    Latencies seq_ms;             // one read in flight
    std::vector<double> qps;      // per closed-loop window
    Latencies inline_ms, ask_ms;
    std::vector<double> ingest_rate;  // per round
    std::vector<double> save_ms, cold_ms;
    double store_mb = 0;
    size_t hits = 0, misses = 0;  // encoder lookups during ingest
    uint64_t batches = 0, batched_jobs = 0;
  };

  const Workload& w_;
  const Args args_;
  const int rounds_;
  Tracer tracer_;
  Inputs in_;
  std::unique_ptr<TabBinServing> svc_;
  std::unique_ptr<AsyncExecutor> ex_;
  Book book_;
  std::vector<BookEntry> doc_book_;     // per ingest document
  std::vector<BookEntry> inline_book_;  // per inline query table
  const int64_t start_ns_ = NowNs();
  std::vector<PhaseCount> counts_;
  Samples samples_;
  std::string last_generation_;  // the phase-5 generation file in use
  std::map<std::string, double> e2e_;    // end-to-end metrics
  std::map<std::string, double> layer_;  // per-layer metrics
};

std::unique_ptr<TabBinServing> Runner::BuildService(const std::string& tag) {
  auto sys = std::make_shared<tabbin::TabBiNSystem>(
      tabbin::TabBiNSystem::Create(in_.corpus, ModelConfig()));
  tabbin::ServiceOptions opts;
  if (w_.hnsw) opts.index_kind = tabbin::kIndexHnsw;
  std::unique_ptr<TabBinServing> svc = tabbin::MakeServing(sys, w_.shards, opts);
  Must(svc->AddTables(in_.corpus), "setup AddTables");
  if (!w_.mapped) return svc;
  const std::string dir = g_run_dir + "/" + tag;
  fs::create_directories(dir);
  MustOk(svc->Save(dir), "setup Save");
  svc.reset();
  auto mapped = Must(tabbin::LoadServing(dir), "setup reopen");
  return mapped;
}

// Runs fn(i) for i in [0, n) on kClients threads.
template <typename Fn>
void ParallelFor(size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kClients; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (auto& th : workers) th.join();
}

void Runner::Setup() {
  std::vector<double> secs;
  for (int rep = 0; rep < w_.setup_reps; ++rep) {
    svc_.reset();  // teardown of the previous build stays off the clock
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(&tracer_, "setup");
      svc_ = BuildService("setup" + std::to_string(rep));
    }
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  e2e_["setup_s"] = Median(secs);
  std::printf("setup: %d builds, median %.3f s\n", w_.setup_reps,
              e2e_["setup_s"]);

  // The benchmark's own record of every table it will send or query
  // with, built off the clock. Astral documents are recomputed from the
  // table the service parsed when they arrive.
  const tabbin::TabBiNSystem& sys = svc_->system();
  std::vector<BookEntry> entries(in_.corpus.size());
  ParallelFor(in_.corpus.size(), [&](size_t i) {
    entries[i] = MakeEntry(sys, in_.corpus[i], in_.corpus[i], false);
  });
  for (size_t i = 0; i < in_.corpus.size(); ++i) {
    book_.by_id[in_.corpus[i].id()] = std::move(entries[i]);
    book_.live.insert(in_.corpus[i].id());
  }
  doc_book_.resize(in_.docs.size());
  ParallelFor(in_.docs.size(), [&](size_t i) {
    const Table& t = in_.docs[i].sent;
    if (!in_.docs[i].astral) doc_book_[i] = MakeEntry(sys, t, t, false);
  });
  inline_book_.resize(in_.inline_tables.size());
  ParallelFor(in_.inline_tables.size(), [&](size_t i) {
    const Table& t = in_.inline_tables[i];
    inline_book_[i] = MakeEntry(sys, t, t, false);
  });
  if (svc_->NumLiveTables() != in_.corpus.size()) Die("setup: live count");
}

std::vector<Answer> Runner::OpenLoop(size_t begin, size_t n) {
  using Clock = std::chrono::steady_clock;
  std::vector<Answer> out(n);
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const double period_ns = 1e9 / w_.open_qps;
  std::thread sender([&] {
    for (size_t i = 0; i < n; ++i) {
      const auto due =
          start + std::chrono::nanoseconds(static_cast<int64_t>(
                      period_ns * static_cast<double>(i)));
      std::this_thread::sleep_until(due);
      Answer& a = out[i];
      a.submitted_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           due.time_since_epoch())
                           .count();
      Submit(*ex_, in_.stored_reads[begin + i], &a);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent = i + 1;
      }
      cv.notify_one();
    }
  });
  for (size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sent > i; });
    }
    Tracer::Scope span(&tracer_, "exec.open_read", 0,
                       static_cast<int64_t>(begin + i));
    Collect(&out[i]);
    out[i].latency_ms = Ms(NowNs() - out[i].submitted_ns);
  }
  sender.join();
  return out;
}

std::vector<Answer> Runner::OneInFlight(int round, size_t begin, size_t n) {
  std::vector<Answer> out(n);
  for (size_t i = 0; i < n; ++i) {
    Tracer::Scope span(&tracer_, "exec.seq_read", 0,
                       static_cast<int64_t>(begin + i));
    Answer& a = out[i];
    a.submitted_ns = NowNs();
    Submit(*ex_, in_.stored_reads[begin + i], &a);
    Collect(&a);
    a.latency_ms = Ms(NowNs() - a.submitted_ns);
    samples_.seq_ms.Add(round, a.req->kind, a.latency_ms);
  }
  return out;
}

double Runner::ClosedLoop(size_t begin, size_t n, Tracer* tracer,
                          std::vector<Answer>* out) {
  out->clear();
  out->resize(n);
  std::atomic<size_t> next{0};
  const int64_t t0 = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < n;) {
        Tracer::Scope span(tracer, "exec.closed_read", 0,
                           static_cast<int64_t>(begin + i));
        Answer& a = (*out)[i];
        a.submitted_ns = NowNs();
        Submit(*ex_, in_.stored_reads[begin + i], &a);
        Collect(&a);
      }
    });
  }
  for (auto& th : clients) th.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

void Runner::ServeStored(int round) {
  const size_t n_open = static_cast<size_t>(w_.open_reads);
  const size_t n_seq = static_cast<size_t>(w_.seq_reads);
  const size_t n_closed = static_cast<size_t>(w_.closed_reads);
  const size_t base = static_cast<size_t>(round) * (n_open + n_seq + n_closed);
  const AsyncExecutor::Stats s0 = ex_->stats();
  std::vector<Answer> open = OpenLoop(base, n_open);
  const AsyncExecutor::Stats s1 = ex_->stats();
  samples_.batches += s1.batches - s0.batches;
  samples_.batched_jobs += s1.batched_jobs - s0.batched_jobs;
  for (const Answer& a : open) samples_.open_ms.push_back(a.latency_ms);
  const std::vector<Answer> seq = OneInFlight(round, base + n_open, n_seq);

  std::vector<Answer> closed;
  const size_t cw = static_cast<size_t>(w_.closed_window);
  for (size_t b = 0; b + cw <= n_closed; b += cw) {
    std::vector<Answer> window;
    const double wall =
        ClosedLoop(base + n_open + n_seq + b, cw, &tracer_, &window);
    samples_.qps.push_back(static_cast<double>(cw) / wall);
    for (Answer& a : window) closed.push_back(std::move(a));
  }

  for (size_t i = 0; i < open.size(); ++i) {
    Check(open[i], "open loop");
    if (i % 8 == 0) CheckSameAsDirect(open[i], "open loop");
  }
  for (size_t i = 0; i < seq.size(); ++i) {
    Check(seq[i], "one in flight");
    if (i % 8 == 0) CheckSameAsDirect(seq[i], "one in flight");
  }
  for (size_t i = 0; i < closed.size(); ++i) {
    Check(closed[i], "closed loop");
    if (i % 8 == 0) CheckSameAsDirect(closed[i], "closed loop");
  }
  Count("open_loop", static_cast<int64_t>(n_open), 0);
  Count("one_in_flight", static_cast<int64_t>(n_seq), 0);
  Count("closed_loop", static_cast<int64_t>(n_closed), 0);
  if (round == 0) {
    std::vector<const Answer*> first;
    for (const Answer& a : open) first.push_back(&a);
    for (const Answer& a : seq) first.push_back(&a);
    e2e_["recall_at_10"] = Recall(first);
  }
}

// recall@10 against the benchmark's own brute-force top-10 over the book,
// on the first round's open-loop and one-in-flight reads, while the book
// holds only the corpus. An item counts when its true cosine reaches the
// 10th best, so ties count.
double Runner::Recall(const std::vector<const Answer*>& answers) {
  std::vector<double> recall;
  const size_t sample = std::min<size_t>(answers.size(), 240);
  for (size_t i = 0; i < sample; ++i) {
    const ReadReq& r = *answers[i]->req;
    const std::vector<float> qvec = QueryVector(r);
    std::vector<double> truth;
    for (const auto& [id, e] : book_.by_id) {
      if (r.kind == ReadKind::kTable) {
        if (id != r.table_id) truth.push_back(Cosine(qvec, e.table));
      } else if (r.kind == ReadKind::kColumn) {
        for (const auto& [c, v] : e.cols) {
          if (!(id == r.table_id && c == r.col)) truth.push_back(Cosine(qvec, v));
        }
      } else {
        for (const auto& [rc, v] : e.ents) {
          if (!(id == r.table_id && rc.first == r.row && rc.second == r.col)) {
            truth.push_back(Cosine(qvec, v));
          }
        }
      }
    }
    const size_t want = std::min<size_t>(static_cast<size_t>(r.k), truth.size());
    if (want == 0) continue;
    std::nth_element(truth.begin(), truth.begin() + static_cast<long>(want - 1),
                     truth.end(), std::greater<double>());
    const double kth = truth[want - 1];
    size_t hits = 0;
    for (const tabbin::ServiceMatch& m : answers[i]->q.matches) {
      const std::vector<float>* v = MatchEmbedding(book_, r.kind, m);
      if (v != nullptr && Cosine(qvec, *v) >= kth - 1e-9) ++hits;
    }
    recall.push_back(static_cast<double>(std::min(hits, want)) /
                     static_cast<double>(want));
  }
  return Mean(recall);
}

void Runner::ServeInline(int round) {
  const size_t n_inline = static_cast<size_t>(w_.inline_reads);
  const size_t n_asks = static_cast<size_t>(w_.asks);
  // One client, one request in flight. Inline reads and Asks alternate in
  // proportion, so both spread over the whole phase.
  std::vector<Answer> inl(n_inline);
  std::vector<Answer> asks(n_asks);
  const size_t steps = n_inline + n_asks;
  size_t j = 0, q = 0;  // inline reads and Asks sent so far
  for (size_t step = 0; step < steps; ++step) {
    if ((step + 1) * n_inline / steps > j) {
      const size_t i = static_cast<size_t>(round) * n_inline + j;
      Tracer::Scope span(&tracer_, "exec.inline_read", 0, static_cast<int64_t>(i));
      Answer& a = inl[j++];
      a.submitted_ns = NowNs();
      Submit(*ex_, in_.inline_reads[i], &a);
      Collect(&a);
      samples_.inline_ms.Add(round, a.req->kind, Ms(NowNs() - a.submitted_ns));
    } else {
      const size_t i = static_cast<size_t>(round) * n_asks + q;
      Tracer::Scope span(&tracer_, "exec.ask", 0, static_cast<int64_t>(i));
      Answer& a = asks[q++];
      a.submitted_ns = NowNs();
      Submit(*ex_, in_.asks[i], &a);
      Collect(&a);
      samples_.ask_ms.Add(round, a.req->kind, Ms(NowNs() - a.submitted_ns));
    }
  }
  for (const Answer& a : inl) {
    Check(a, "inline");
    CheckSameAsDirect(a, "inline");
  }
  for (size_t j = 0; j < n_asks; ++j) {
    Check(asks[j], "ask");
    Tracer::Scope span(&tracer_, "service.ask", 0, static_cast<int64_t>(j));
    CheckSameAsDirect(asks[j], "ask");
  }
  Count("inline", static_cast<int64_t>(n_inline), 0);
  Count("ask", static_cast<int64_t>(n_asks), 0);
}

void Runner::VerifyIngested(const IngestDoc& doc, const Table& served,
                            int64_t* failed) {
  // Read the document back through the service: an inline query with the
  // table the service parsed must return the table itself, and its
  // caption and probe cell must equal the text that was sent. Generated
  // tables can share a column verbatim, so several items may tie with
  // the probe at cosine 1; k leaves room for the ties.
  constexpr int kVerifyK = 64;
  const std::string& id = doc.sent.id();
  auto tables =
      Must(svc_->SimilarTables({"", &served, kVerifyK}), "verify tables");
  const tabbin::ServiceMatch* self = nullptr;
  for (const auto& m : tables.matches) {
    if (m.table_id == id) self = &m;
  }
  if (self == nullptr) Die("ingest: table " + id + " not served back");
  bool same = IsValidUtf8(self->caption) && self->caption == doc.sent.caption();
  // A cell past the encoder's sequence limit embeds as all zeros and ties
  // with every item at score 0, so similarity cannot find it again.
  const std::vector<float>& probe =
      book_.by_id.at(id).ents[{doc.probe_row, doc.probe_col}];
  const bool findable =
      std::any_of(probe.begin(), probe.end(), [](float x) { return x != 0; });
  if (doc.probe_row >= 0 && findable) {
    auto ents = Must(
        svc_->SimilarEntities(
            {"", &served, doc.probe_row, doc.probe_col, kVerifyK}),
        "verify entities");
    const tabbin::ServiceMatch* cell = nullptr;
    for (const auto& m : ents.matches) {
      if (m.table_id == id && m.row == doc.probe_row && m.col == doc.probe_col) {
        cell = &m;
      }
    }
    if (cell == nullptr) Die("ingest: cell of " + id + " not served back");
    same = same && IsValidUtf8(cell->entity) &&
           cell->entity ==
               doc.sent.cell(doc.probe_row, doc.probe_col).value.text();
  }
  if (same) return;
  if (!doc.astral) Die("ingest: served text differs from sent text for " + id);
  ++*failed;  // the surrogate-pair decoding fault; see README
}

void Runner::Ingest(int round) {
  tabbin::EncoderEngine& engine = svc_->engine();
  const size_t hits0 = engine.hits();
  const size_t misses0 = engine.misses();
  size_t own_hits = 0, own_misses = 0;

  // Inline reads and Ask beside the stream: one client on a fixed
  // schedule, so every run offers the same load beside the writes. The
  // gap keeps reader-lock holds from queueing every write behind them.
  const size_t n_beside = static_cast<size_t>(w_.beside_reads);
  const size_t beside0 = static_cast<size_t>(round) * n_beside;
  std::vector<Answer> beside(n_beside);
  std::thread reader([&] {
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    for (size_t j = 0; j < n_beside; ++j) {
      std::this_thread::sleep_until(start + std::chrono::milliseconds(20) *
                                                static_cast<int>(j));
      Tracer::Scope span(&tracer_, "exec.beside_read", 0,
                         static_cast<int64_t>(beside0 + j));
      beside[j].submitted_ns = NowNs();
      Submit(*ex_, in_.beside_reads[beside0 + j], &beside[j]);
      Collect(&beside[j]);
    }
  });

  int64_t failed = 0;
  int64_t removes = 0;
  int64_t ingest_ns = 0;  // parse and acknowledged add, all batches
  const size_t batch = static_cast<size_t>(w_.ingest_batch);
  const size_t d0 = static_cast<size_t>(round) * static_cast<size_t>(w_.ingest_docs);
  const size_t d_end = d0 + static_cast<size_t>(w_.ingest_docs);
  for (size_t b0 = d0; b0 < d_end; b0 += batch) {
    const size_t b1 = std::min(d_end, b0 + batch);
    const int64_t batch_no = static_cast<int64_t>(b0 / batch);
    // Traced runs alternate the write lane with direct calls, so the
    // lane's own cost is the difference of the two.
    const bool direct = tracer_.on() && batch_no % 2 == 1;
    Tracer::Scope batch_span(&tracer_, "ingest.batch", 0, batch_no);
    const int64_t t0 = NowNs();
    std::vector<Table> tables;
    for (size_t i = b0; i < b1; ++i) {
      Tracer::Scope span(&tracer_, "io.parse", batch_span.id(),
                         static_cast<int64_t>(i));
      auto json = Must(tabbin::Json::Parse(in_.docs[i].json), "ingest parse");
      tables.push_back(Must(tabbin::TableFromJson(json), "ingest table"));
    }
    {
      Tracer::Scope span(&tracer_, direct ? "service.add" : "exec.write",
                         batch_span.id(), batch_no);
      if (direct) {
        Must(svc_->AddTables(tables), "ingest AddTables");
      } else {
        Must(ex_->SubmitAddTables(tables).get(), "ingest SubmitAddTables");
      }
    }
    ingest_ns += NowNs() - t0;

    for (size_t i = b0; i < b1; ++i) {
      const IngestDoc& doc = in_.docs[i];
      book_.by_id[doc.sent.id()] =
          doc.astral ? MakeEntry(svc_->system(), doc.sent, tables[i - b0], true)
                     : std::move(doc_book_[i]);
      book_.live.insert(doc.sent.id());
      // The read-back queries are the benchmark's, not the workload's:
      // keep their encoder lookups out of the hit ratio.
      const size_t h = engine.hits(), m = engine.misses();
      VerifyIngested(doc, tables[i - b0], &failed);
      own_hits += engine.hits() - h;
      own_misses += engine.misses() - m;
    }
    for (size_t i = b0; i < b1; ++i) {
      const std::string& id = in_.docs[i].sent.id();
      if (!in_.docs[i].remove) continue;
      const bool direct_rm = tracer_.on() && removes % 2 == 1;
      Tracer::Scope span(&tracer_, direct_rm ? "service.remove" : "exec.remove",
                         0, removes);
      MustOk(direct_rm ? svc_->RemoveTable(id) : ex_->SubmitRemoveTable(id).get(),
             "ingest RemoveTable");
      book_.removed_at_ns[id] = NowNs();
      book_.live.erase(id);
      ++removes;
    }
  }
  reader.join();
  samples_.ingest_rate.push_back(static_cast<double>(d_end - d0) /
                                 (static_cast<double>(ingest_ns) / 1e9));
  samples_.hits += engine.hits() - hits0 - own_hits;
  samples_.misses += engine.misses() - misses0 - own_misses;
  for (const Answer& a : beside) Check(a, "beside the stream");
  if (w_.compact_each_round || round == rounds_ - 1) {
    const int64_t t0 = NowNs();
    {
      Tracer::Scope span(&tracer_, "service.compact");
      MustOk(svc_->Compact(), "Compact");
    }
    std::printf("compact: %.1f ms\n", Ms(NowNs() - t0));
  }
  if (svc_->NumLiveTables() != book_.live.size()) Die("ingest: live count");
  Count("ingest", static_cast<int64_t>(d_end - d0), failed);
  Count("remove", removes, 0);
  Count("beside", static_cast<int64_t>(n_beside), 0);
}

void Runner::SaveReopen() {
  const std::string dir = g_run_dir + "/store";
  fs::create_directories(dir);
  // Answers sampled before Save; every reopen must reproduce them. The
  // cold-open probe is the first stored request of each kind, then Ask.
  std::vector<const ReadReq*> sample;
  for (size_t i = 0; i < 20 && i < in_.stored_reads.size(); ++i) {
    sample.push_back(&in_.stored_reads[i]);
  }
  for (size_t i = 0; i < 3 && i < in_.asks.size(); ++i) {
    sample.push_back(&in_.asks[i]);
  }
  std::vector<const ReadReq*> first;
  for (ReadKind kind : {ReadKind::kColumn, ReadKind::kTable, ReadKind::kEntity}) {
    for (const ReadReq& r : in_.stored_reads) {
      if (r.kind == kind) {
        first.push_back(&r);
        break;
      }
    }
  }
  first.push_back(&in_.asks[0]);
  std::vector<Answer> before;
  for (const ReadReq* r : sample) before.push_back(Direct(*svc_, *r));
  std::vector<Answer> first_before;
  for (const ReadReq* r : first) first_before.push_back(Direct(*svc_, *r));
  auto same = [](const Answer& x, const Answer& y) {
    return x.error.empty() && y.error.empty() &&
           (x.req->kind == ReadKind::kAsk ? SameAsk(x.a, y.a) : SameQuery(x.q, y.q));
  };

  for (int save = 0; save < w_.saves; ++save) {
    const int64_t t0 = NowNs();
    if (tracer_.on()) {
      // The same bytes Save writes, in its two steps.
      Tracer::Scope span(&tracer_, "save");
      tabbin::PagedSnapshotWriter writer;
      {
        Tracer::Scope s(&tracer_, "service.append_store", span.id());
        if (auto* sh = dynamic_cast<tabbin::ShardedTabBinService*>(svc_.get())) {
          sh->AppendStore(&writer);
        } else {
          dynamic_cast<tabbin::TabBinService&>(*svc_).AppendStore(&writer);
        }
      }
      Tracer::Scope s(&tracer_, "store.write", span.id());
      Must(tabbin::PublishGeneration(dir, writer.Assemble()), "publish");
    } else {
      MustOk(svc_->Save(dir), "Save");
    }
    samples_.save_ms.push_back(Ms(NowNs() - t0));
    const std::string file = Must(tabbin::ResolveGeneration(dir), "resolve");
    samples_.store_mb = static_cast<double>(fs::file_size(file)) / 1e6;
    if (!last_generation_.empty()) fs::remove(last_generation_);
    last_generation_ = file;

    for (int rep = 0; rep < w_.reopens; ++rep) {
      std::unique_ptr<TabBinServing> opened;
      std::vector<Answer> answers;
      const int64_t o0 = NowNs();
      {
        Tracer::Scope span(&tracer_, "cold_open");
        {
          Tracer::Scope s(&tracer_, "service.restore", span.id());
          opened = Must(tabbin::LoadServing(dir), "reopen");
        }
        Tracer::Scope s(&tracer_, "service.first_answer", span.id());
        for (const ReadReq* r : first) answers.push_back(Direct(*opened, *r));
      }
      samples_.cold_ms.push_back(Ms(NowNs() - o0));
      for (size_t i = 0; i < answers.size(); ++i) {
        if (!same(answers[i], first_before[i])) {
          Die("reopen: first answer differs from the answer before Save");
        }
      }
      if (tracer_.on()) {
        Tracer::Scope s(&tracer_, "store.open");
        Must(tabbin::PagedSnapshotReader::Open(file), "store open");
      }
      if (rep == 0) {
        const std::string err = CheckLiveSet(book_.live, opened->LiveTableIds());
        if (!err.empty()) Die("reopen: " + err);
        for (size_t i = 0; i < sample.size(); ++i) {
          if (!same(Direct(*opened, *sample[i]), before[i])) {
            Die("reopen: sampled answer differs from the answer before Save");
          }
        }
      }
      opened.reset();  // off the clock: a fresh process has nothing to free
    }
  }
  Count("save", w_.saves, 0);
  Count("reopen", static_cast<int64_t>(w_.saves) * w_.reopens, 0);
}

// Traced runs only: direct calls paired with executor round trips, and
// the candidate generators and kernels timed on indexes the benchmark
// builds itself over the workload's own column embeddings.
void Runner::LayerProbes() {
  const size_t pairs = std::min<size_t>(in_.stored_reads.size(), 300);
  std::vector<double> self_us, cands;
  for (size_t i = 0; i < pairs; ++i) {
    const ReadReq& r = in_.stored_reads[i];
    const int64_t req = static_cast<int64_t>(i);
    Answer a;
    int64_t rt = 0;
    {
      Tracer::Scope span(&tracer_, "exec.roundtrip", 0, req);
      const int64_t t0 = NowNs();
      Submit(*ex_, r, &a);
      Collect(&a);
      rt = NowNs() - t0;
    }
    int64_t direct = 0;
    {
      Tracer::Scope span(&tracer_, DirectSpanName(r.kind), 0, req);
      const int64_t t0 = NowNs();
      Answer d = Direct(*svc_, r);
      direct = NowNs() - t0;
      cands.push_back(d.q.candidates);
    }
    self_us.push_back(static_cast<double>(rt - direct) / 1e3);
  }
  layer_["exec.self_us"] = Median(self_us);
  layer_["service.candidates"] = Mean(cands);

  // Tracing overhead: the same closed-loop requests with the tracer off
  // and on, alternated so warm-up favours neither side.
  Tracer off(false);
  double t_off = 0, t_on = 0;
  std::vector<Answer> sink;
  const size_t n = std::min<size_t>(in_.stored_reads.size(), 200);
  for (int pass = 0; pass < 4; ++pass) {
    const double s = ClosedLoop(0, n, pass % 2 ? &tracer_ : &off, &sink);
    (pass % 2 ? t_on : t_off) += s;
  }
  layer_["trace.overhead_pct"] = 100.0 * (t_on - t_off) / t_off;

  // Column embeddings of the workload, as the service indexes them.
  tabbin::EmbeddingMatrix cols;
  for (const Table& t : in_.corpus) {
    for (const auto& [c, v] : book_.by_id.at(t.id()).cols) cols.AppendRow(v);
  }
  const tabbin::ServiceOptions so;
  tabbin::LshIndex lsh(static_cast<int>(cols.cols()), so.lsh_bits,
                       so.lsh_tables, so.lsh_seed);
  tabbin::HnswIndex hnsw(static_cast<int>(cols.cols()),
                         {so.hnsw_m, so.hnsw_ef_construction, so.lsh_seed});
  for (size_t i = 0; i < cols.rows(); ++i) {
    MustOk(lsh.Insert(static_cast<int>(i), cols.row(i)), "lsh insert");
    Tracer::Scope span(&tracer_, "index.hnsw_insert");
    MustOk(hnsw.Insert(cols, static_cast<int>(i)), "hnsw insert");
  }
  double pool_rows = 0, cosine_ns = 0, expansions = 0, scored = 0;
  int queries = 0;
  std::vector<float> scores;
  for (size_t i = 0; i < in_.stored_reads.size() && queries < 300; ++i) {
    const ReadReq& r = in_.stored_reads[i];
    if (r.kind != ReadKind::kColumn) continue;
    const std::vector<float> q = QueryVector(r);
    std::vector<uint64_t> keys;
    {
      Tracer::Scope span(&tracer_, "lsh.query_keys", 0, static_cast<int64_t>(i));
      keys = lsh.QueryKeys(q);
    }
    std::vector<int> pool;
    {
      Tracer::Scope span(&tracer_, "lsh.query_by_keys", 0, static_cast<int64_t>(i));
      pool = lsh.QueryByKeys(keys);
    }
    pool_rows += static_cast<double>(pool.size());
    scores.resize(pool.size());
    const int64_t k0 = NowNs();
    tabbin::kernels::BatchedCosineRows(
        q.data(), tabbin::kernels::InvNorm(q.data(), q.size()), cols.data(),
        cols.cols(), pool.data(), pool.size(), cols.inv_norms(), scores.data());
    cosine_ns += static_cast<double>(NowNs() - k0);
    tabbin::HnswSearchStats st;
    {
      Tracer::Scope span(&tracer_, "index.hnsw_search", 0, static_cast<int64_t>(i));
      hnsw.Search(cols, q, so.hnsw_ef_search, &st);
    }
    expansions += static_cast<double>(st.visited);
    scored += static_cast<double>(st.scored);
    ++queries;
  }
  layer_["lsh.pool_rows"] = pool_rows / queries;
  layer_["kernels.cosine_ns_per_row"] = cosine_ns / pool_rows;
  layer_["index.hnsw_expansions"] = expansions / queries;
  layer_["index.hnsw_scored"] = scored / queries;

  // Encoder and tokenizer on never-seen tables.
  const tabbin::TabBiNSystem& sys = svc_->system();
  for (size_t i = 0; i < in_.docs.size() && i < 40; ++i) {
    {
      Tracer::Scope span(&tracer_, "encoder.encode_all", 0, static_cast<int64_t>(i));
      (void)sys.EncodeAll(in_.docs[i].sent);
    }
    Tracer::Scope span(&tracer_, "text.tokenize", 0, static_cast<int64_t>(i));
    (void)tabbin::Tokenize(tabbin::ServiceDocumentText(in_.docs[i].sent),
                           sys.vocab());
  }
}

// Every metric the benchmark reports, with its unit. End-to-end metrics
// go into the result of an untraced run, per-layer metrics into the
// result of a traced one. Printed-only metrics appear as `metric` lines
// of an untraced run but not in its result: ten runs of the same code on
// the shared reference host spread them by more than a bound of at most
// 25 % can hold (see README). The open loop's queue multiplies every
// slowdown of the host; the closed loop, ingest and Save run on several
// threads at once; and encode-heavy requests (inline reads, Ask) slowed
// by a third whenever the host was busy for a whole run.
enum class MetricKind { kEndToEnd, kLayer, kPrinted };
struct MetricDef {
  const char* name;
  const char* unit;
  MetricKind kind;
};
constexpr MetricKind kE2e = MetricKind::kEndToEnd;
constexpr MetricKind kLay = MetricKind::kLayer;
const MetricDef kMetrics[] = {
    {"setup_s", "s", kE2e},
    {"read_p50_ms", "ms", kE2e},
    {"open_p50_ms", "ms", MetricKind::kPrinted},
    {"open_p99_ms", "ms", MetricKind::kPrinted},
    {"read_qps", "1/s", MetricKind::kPrinted},
    {"inline_p50_ms", "ms", MetricKind::kPrinted},
    {"ask_p50_ms", "ms", MetricKind::kPrinted},
    {"ingest_tables_per_s", "1/s", MetricKind::kPrinted},
    {"save_ms", "ms", MetricKind::kPrinted},
    {"cold_open_ms", "ms", kE2e},
    {"store_mb", "MB", kE2e},
    {"peak_rss_mb", "MB", kE2e},
    {"recall_at_10", "ratio", kE2e},
    {"exec.roundtrip_us", "us", kLay},
    {"exec.self_us", "us", kLay},
    {"exec.batch_mean", "count", kLay},
    {"exec.write_wait_ms", "ms", kLay},
    {"service.columns_us", "us", kLay},
    {"service.tables_us", "us", kLay},
    {"service.entities_us", "us", kLay},
    {"service.candidates", "count", kLay},
    {"service.ask_us", "us", kLay},
    {"service.add_ms_per_table", "ms", kLay},
    {"service.remove_us", "us", kLay},
    {"service.compact_ms", "ms", kLay},
    {"lsh.query_keys_us", "us", kLay},
    {"lsh.query_by_keys_us", "us", kLay},
    {"lsh.pool_rows", "count", kLay},
    {"index.hnsw_search_us", "us", kLay},
    {"index.hnsw_expansions", "count", kLay},
    {"index.hnsw_scored", "count", kLay},
    {"index.hnsw_insert_us", "us", kLay},
    {"kernels.cosine_ns_per_row", "ns", kLay},
    {"encoder.encode_all_ms", "ms", kLay},
    {"encoder.hit_ratio", "ratio", kLay},
    {"text.tokenize_us_per_table", "us", kLay},
    {"io.parse_us_per_table", "us", kLay},
    {"store.open_ms", "ms", kLay},
    {"service.restore_ms", "ms", kLay},
    {"service.first_answer_ms", "ms", kLay},
    {"service.append_store_ms", "ms", kLay},
    {"store.write_ms", "ms", kLay},
    {"trace.overhead_pct", "%", kLay},
};

void Runner::Report() {
  e2e_["read_p50_ms"] = samples_.seq_ms.Median();
  // Pooled over every open-loop read of the run: the windows of later
  // rounds see a larger corpus, so a median of per-window tails moved
  // with the seed far more than the pooled tail does.
  e2e_["open_p50_ms"] = Quantile(samples_.open_ms, 0.50);
  e2e_["open_p99_ms"] = Quantile(samples_.open_ms, 0.99);
  e2e_["read_qps"] = Median(samples_.qps);
  e2e_["inline_p50_ms"] = samples_.inline_ms.Median();
  e2e_["ask_p50_ms"] = samples_.ask_ms.Median();
  e2e_["ingest_tables_per_s"] = Median(samples_.ingest_rate);
  e2e_["save_ms"] = Median(samples_.save_ms);
  e2e_["cold_open_ms"] = Median(samples_.cold_ms);
  e2e_["store_mb"] = samples_.store_mb;
  if (samples_.batches > 0) {
    layer_["exec.batch_mean"] = static_cast<double>(samples_.batched_jobs) /
                                static_cast<double>(samples_.batches);
  }
  if (samples_.hits + samples_.misses > 0) {
    layer_["encoder.hit_ratio"] =
        static_cast<double>(samples_.hits) /
        static_cast<double>(samples_.hits + samples_.misses);
  }
  int64_t attempted = 0, failed = 0;
  for (const PhaseCount& c : counts_) {
    std::printf("phase %-12s attempted=%lld failed=%lld\n", c.phase.c_str(),
                static_cast<long long>(c.attempted),
                static_cast<long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }

  const std::map<std::string, double> mean = tracer_.MeanUs();
  auto us = [&](const char* name) {
    auto it = mean.find(name);
    return it == mean.end() ? NAN : it->second;
  };
  layer_["exec.roundtrip_us"] = us("exec.roundtrip");
  layer_["exec.write_wait_ms"] = (us("exec.write") - us("service.add")) / 1e3;
  layer_["service.columns_us"] = us("service.columns");
  layer_["service.tables_us"] = us("service.tables");
  layer_["service.entities_us"] = us("service.entities");
  layer_["service.ask_us"] = us("service.ask");
  layer_["service.add_ms_per_table"] = us("service.add") / 1e3 / w_.ingest_batch;
  layer_["service.remove_us"] = us("service.remove");
  layer_["service.compact_ms"] = us("service.compact") / 1e3;
  layer_["lsh.query_keys_us"] = us("lsh.query_keys");
  layer_["lsh.query_by_keys_us"] = us("lsh.query_by_keys");
  layer_["index.hnsw_search_us"] = us("index.hnsw_search");
  layer_["index.hnsw_insert_us"] = us("index.hnsw_insert");
  layer_["encoder.encode_all_ms"] = us("encoder.encode_all") / 1e3;
  layer_["text.tokenize_us_per_table"] = us("text.tokenize");
  layer_["io.parse_us_per_table"] = us("io.parse");
  layer_["store.open_ms"] = us("store.open") / 1e3;
  layer_["service.restore_ms"] = us("service.restore") / 1e3;
  layer_["service.first_answer_ms"] = us("service.first_answer") / 1e3;
  layer_["service.append_store_ms"] = us("service.append_store") / 1e3;
  layer_["store.write_ms"] = us("store.write") / 1e3;

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  e2e_["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : kMetrics) {
    if ((m.kind == MetricKind::kLayer) != tracer_.on()) continue;
    const std::map<std::string, double>& from =
        m.kind == MetricKind::kLayer ? layer_ : e2e_;
    auto it = from.find(m.name);
    if (it == from.end() || !std::isfinite(it->second)) {
      Die(std::string("metric ") + m.name + " was not measured");
    }
    std::printf("metric %-28s %14.6f %s\n", m.name, it->second, m.unit);
    if (m.kind == MetricKind::kPrinted) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", it->second);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void Runner::Main() {
  std::printf("host nproc=%u dispatch=%s compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), tabbin::kernels::ActiveName(),
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("workload %s seed %llu rounds %d trace %d\n", w_.name,
              static_cast<unsigned long long>(args_.seed), rounds_,
              args_.trace ? 1 : 0);
  const std::pair<double, double> steal0 = StealTicks();
  in_ = MakeInputs(w_, args_.seed, rounds_);
  Setup();
  std::printf("setup done at %.1f s\n", Ms(NowNs() - start_ns_) / 1e3);
  tabbin::ExecutorOptions eo;
  // Deep enough that the open loop never sheds: a refused request would
  // be a failure whose count depends on the host, not on the program.
  eo.read_queue_depth = 1 << 15;
  ex_ = std::make_unique<AsyncExecutor>(svc_.get(), eo);
  // Rounds interleave the phases, so each metric samples the whole run.
  for (int round = 0; round < rounds_; ++round) {
    const int64_t t0 = NowNs();
    ServeStored(round);
    if (tracer_.on() && round == 0) LayerProbes();
    const int64_t t1 = NowNs();
    ServeInline(round);
    const int64_t t2 = NowNs();
    Ingest(round);
    const int64_t t3 = NowNs();
    SaveReopen();
    const int64_t t4 = NowNs();
    std::printf("round %d done at %.1f s: stored %.2f inline %.2f ingest %.2f "
                "save %.2f s\n",
                round, Ms(t4 - start_ns_) / 1e3, Ms(t1 - t0) / 1e3,
                Ms(t2 - t1) / 1e3, Ms(t3 - t2) / 1e3, Ms(t4 - t3) / 1e3);
  }
  ex_->Shutdown();
  ex_.reset();
  const std::pair<double, double> steal1 = StealTicks();
  const double ticks = steal1.second - steal0.second;
  std::printf("host steal %.1f %%\n",
              ticks > 0 ? 100.0 * (steal1.first - steal0.first) / ticks : 0.0);
  Report();
  if (tracer_.on()) {
    const std::string dir = args_.workdir + "/traces";
    fs::create_directories(dir);
    const std::string path = dir + "/" + w_.name + "-s" +
                             std::to_string(args_.seed) + ".tsv";
    if (!tracer_.WriteTsv(path)) Die("cannot write " + path);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const std::vector<std::string> silent = SelfTest();
  for (const std::string& s : silent) {
    std::fprintf(stderr, "perfbench: self-test: check did not fire: %s\n", s.c_str());
  }
  if (!silent.empty()) return 3;
  g_run_dir = args.workdir + "/run-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(g_run_dir, ec);
  if (ec) Die("cannot create " + g_run_dir);
  {
    CoreWarmer warm;
    Runner(*w, args).Main();
  }
  fs::remove_all(g_run_dir, ec);
  return 0;
}

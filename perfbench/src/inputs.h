// Workload definitions and seeded input generation for the serving
// benchmark. Everything the program receives — the corpus, the request
// mixes, the inline query tables, the question strings and the ingest
// documents — is made here from the workload constants and --seed alone.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/table.h"

namespace perfbench {

/// \brief One workload: corpus shape, serving layout and per-round
/// operation counts. A run executes `rounds` whole rounds of every
/// count, so each run attempts the same mix of operations.
struct Workload {
  const char* name;
  // Nominal length of one round, in milliseconds. A run of --seconds S
  // executes max(1, 1000 * S / round_ms) rounds. Rounds are
  // short so that each metric's samples spread over the whole run: the
  // host slows down for stretches of 0.1-1 s, and a phase that ran as one
  // long block would land in or out of such a stretch as a whole.
  int round_ms;
  int corpus_tables;
  int shards;
  bool hnsw;        // index_kind = hnsw from the first AddTables
  bool mapped;      // serve from a reopened v2 store
  int setup_reps;   // corpus builds per run; setup_s is their median
  double open_qps;  // fixed open-loop arrival rate (requests/s)
  // Closed-loop reads per measurement window: the rate is taken per
  // window and the run reports the median, so a burst of interference
  // on the host spoils one window, not the run.
  int closed_window;
  // Per-round operation counts.
  int open_reads;
  int seq_reads;  // one client, one read in flight: read_p50_ms
  int closed_reads;
  int inline_reads;
  int asks;
  int ingest_docs;    // includes the astral documents below
  int astral_docs;    // documents carrying UTF-16 surrogate pairs
  int ingest_batch;   // tables per SubmitAddTables
  int beside_reads;   // inline reads + asks issued beside the stream
  // Compact after every round's stream instead of once per run. A
  // workload whose rounds remove a large share of its corpus needs it:
  // otherwise tombstones pile up and each round reads a slower service
  // than the last. On the graph workload Compact also rebuilds every
  // shard's graphs (seconds).
  bool compact_each_round;
  int saves;          // Saves per round
  int reopens;        // cold opens per Save
};

/// \brief The workload named `name`, or nullptr.
const Workload* FindWorkload(const std::string& name);

enum class ReadKind { kColumn = 0, kTable = 1, kEntity = 2, kAsk = 3 };

/// \brief One Similar* request or, with kind kAsk, one Ask.
/// `inline_table` indexes Inputs::inline_tables (-1 = stored-id request
/// against `table_id`).
struct ReadReq {
  ReadKind kind = ReadKind::kColumn;
  std::string table_id;
  int inline_table = -1;
  int row = 0;
  int col = 0;
  int k = 10;
  std::string question;  // kAsk only
};

/// \brief One ingest document: the table as the benchmark built it (the
/// text that was sent) and its ASCII-escaped JSON encoding.
struct IngestDoc {
  tabbin::Table sent;
  std::string json;
  bool astral = false;  // caption/cell carry astral-plane characters
  bool remove = false;  // removed right after it is verified
  int probe_row = -1;   // a multi-script string cell, or -1
  int probe_col = -1;
};

struct Inputs {
  std::vector<tabbin::Table> corpus;
  std::vector<ReadReq> stored_reads;  // open, sequential, closed loop
  std::vector<tabbin::Table> inline_tables;
  std::vector<ReadReq> inline_reads;  // phase 3
  std::vector<ReadReq> beside_reads;  // phase 4: inline reads and asks
  std::vector<ReadReq> asks;          // phase 3
  std::vector<IngestDoc> docs;                // rounds * ingest_docs
};

Inputs MakeInputs(const Workload& w, uint64_t seed, int rounds);

/// \brief Data cells the service indexes as entities: string cells of the
/// data region, row-major, at most `cap` (ServiceOptions default 64).
std::vector<std::pair<int, int>> EntityCells(const tabbin::Table& t,
                                             int cap = 64);

/// \brief Writes a table in the TableFromJson schema with every byte
/// outside printable ASCII escaped as \uXXXX; astral-plane code points
/// become UTF-16 surrogate pairs.
std::string WriteTableJson(const tabbin::Table& t);

/// \brief True when `s` is well-formed UTF-8 (no surrogates, no overlong
/// forms, nothing above U+10FFFF).
bool IsValidUtf8(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_

// Answer checks. Every check compares a served answer against what the
// benchmark computed apart from the program: its own double-precision
// cosines over the embedding accessors' vectors, the text it sent, the
// ids it added and removed. Each returns "" on success and a reason
// otherwise; SelfTest() feeds each one a deliberately wrong answer.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "inputs.h"
#include "core/tabbin.h"
#include "service/service_types.h"

namespace perfbench {

/// \brief The benchmark's own record of one served table: its embeddings,
/// computed with TabBiNSystem::EncodeAll and the composite functions the
/// embedding accessors use, and the text that was sent.
struct BookEntry {
  std::vector<float> table;
  std::map<int, std::vector<float>> cols;
  std::map<std::pair<int, int>, std::vector<float>> ents;
  std::string caption;
  std::map<std::pair<int, int>, std::string> cell_text;
  // Served text is known to differ (surrogate pairs); the ingest phase
  // counts it as a failed operation, so text checks skip it.
  bool astral = false;
};

struct Book {
  std::unordered_map<std::string, BookEntry> by_id;
  std::set<std::string> live;
  std::map<std::string, int64_t> removed_at_ns;  // removal acknowledged
};

/// \brief Builds the entry for `served` (the table the program holds)
/// whose sent form is `sent`. Bypasses the service and its encoder cache.
BookEntry MakeEntry(const tabbin::TabBiNSystem& sys, const tabbin::Table& sent,
                    const tabbin::Table& served, bool astral);

double Cosine(const std::vector<float>& a, const std::vector<float>& b);

/// \brief Embedding of the item a match names, or nullptr.
const std::vector<float>* MatchEmbedding(const Book& book, ReadKind kind,
                                         const tabbin::ServiceMatch& m);

/// \brief Scores, order, k, self-exclusion, text and removal checks for one
/// Similar* answer. `submitted_ns` is when the request was sent.
std::string CheckQuery(const Book& book, const ReadReq& req,
                       const std::vector<float>& qvec,
                       const tabbin::QueryResponse& resp, int64_t submitted_ns);

/// \brief The same checks for one Ask answer; `qvec` is the question's
/// table embedding.
std::string CheckAsk(const Book& book, const ReadReq& req,
                     const std::vector<float>& qvec,
                     const tabbin::AskResponse& resp, int64_t submitted_ns);

/// \brief Byte equality of two answers (executor vs direct, before Save vs
/// after reopen).
bool SameQuery(const tabbin::QueryResponse& a, const tabbin::QueryResponse& b);
bool SameAsk(const tabbin::AskResponse& a, const tabbin::AskResponse& b);

/// \brief The reopened service's live ids against the tracked set.
std::string CheckLiveSet(const std::set<std::string>& tracked,
                         const std::vector<std::string>& served);

/// \brief Feeds every check a wrong answer; returns the checks that did not
/// fire (empty = all fired).
std::vector<std::string> SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

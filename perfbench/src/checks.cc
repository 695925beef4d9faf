#include "checks.h"

#include <cmath>
#include <cstring>

namespace perfbench {

using tabbin::AskResponse;
using tabbin::QueryResponse;
using tabbin::ServiceMatch;
using tabbin::Table;

namespace {

constexpr double kScoreTolerance = 1e-4;

std::string Describe(const ServiceMatch& m) {
  return m.table_id + "(" + std::to_string(m.row) + "," +
         std::to_string(m.col) + ")";
}

// Score descending, then table id, column, row; strictly, so duplicates
// fail too.
bool StrictlyBefore(const ServiceMatch& a, const ServiceMatch& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.table_id != b.table_id) return a.table_id < b.table_id;
  if (a.col != b.col) return a.col < b.col;
  return a.row < b.row;
}

std::string CheckMatchList(const Book& book, ReadKind kind,
                           const std::vector<float>& qvec, int k,
                           const std::vector<ServiceMatch>& matches,
                           int64_t submitted_ns) {
  if (static_cast<int>(matches.size()) > k) {
    return "more than k matches";
  }
  for (size_t i = 0; i < matches.size(); ++i) {
    const ServiceMatch& m = matches[i];
    if (i > 0 && !StrictlyBefore(matches[i - 1], m)) {
      return "matches out of order at " + Describe(m);
    }
    auto gone = book.removed_at_ns.find(m.table_id);
    if (gone != book.removed_at_ns.end() && submitted_ns > gone->second) {
      return "removed table returned: " + m.table_id;
    }
    auto entry = book.by_id.find(m.table_id);
    if (entry == book.by_id.end()) return "unknown table " + m.table_id;
    const std::vector<float>* vec = MatchEmbedding(book, kind, m);
    if (vec == nullptr) return "unknown item " + Describe(m);
    const double want = Cosine(qvec, *vec);
    if (!(std::fabs(want - static_cast<double>(m.score)) <= kScoreTolerance)) {
      return "score " + std::to_string(m.score) + " != cosine " +
             std::to_string(want) + " for " + Describe(m);
    }
    if (!IsValidUtf8(m.caption) || !IsValidUtf8(m.entity)) {
      if (!entry->second.astral) return "invalid UTF-8 in " + Describe(m);
    }
    if (entry->second.astral) continue;
    if (m.caption != entry->second.caption) {
      return "caption differs from the sent text for " + m.table_id;
    }
    if (kind == ReadKind::kEntity) {
      auto text = entry->second.cell_text.find({m.row, m.col});
      if (text == entry->second.cell_text.end() || text->second != m.entity) {
        return "entity differs from the sent text for " + Describe(m);
      }
    }
  }
  return "";
}

}  // namespace

BookEntry MakeEntry(const tabbin::TabBiNSystem& sys, const Table& sent,
                    const Table& served, bool astral) {
  const tabbin::TableEncodings enc = sys.EncodeAll(served);
  BookEntry e;
  e.table = sys.TableComposite1(enc);
  for (int c = served.vmd_cols(); c < served.cols(); ++c) {
    e.cols[c] = sys.ColumnComposite(enc, c);
  }
  for (const auto& [r, c] : EntityCells(served)) {
    e.ents[{r, c}] = sys.EntityEmbedding(enc, r, c);
    e.cell_text[{r, c}] = sent.cell(r, c).value.text();
  }
  e.caption = sent.caption();
  e.astral = astral;
  return e;
}

double Cosine(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return NAN;
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0 || nb == 0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

const std::vector<float>* MatchEmbedding(const Book& book, ReadKind kind,
                                         const ServiceMatch& m) {
  auto entry = book.by_id.find(m.table_id);
  if (entry == book.by_id.end()) return nullptr;
  const BookEntry& e = entry->second;
  switch (kind) {
    case ReadKind::kColumn: {
      auto it = e.cols.find(m.col);
      return it == e.cols.end() ? nullptr : &it->second;
    }
    case ReadKind::kEntity: {
      auto it = e.ents.find({m.row, m.col});
      return it == e.ents.end() ? nullptr : &it->second;
    }
    case ReadKind::kTable:
    case ReadKind::kAsk:
      return &e.table;
  }
  return nullptr;
}

std::string CheckQuery(const Book& book, const ReadReq& req,
                       const std::vector<float>& qvec,
                       const QueryResponse& resp, int64_t submitted_ns) {
  if (req.inline_table < 0) {
    for (const ServiceMatch& m : resp.matches) {
      const bool self =
          m.table_id == req.table_id &&
          (req.kind == ReadKind::kTable ||
           (req.kind == ReadKind::kColumn && m.col == req.col) ||
           (req.kind == ReadKind::kEntity && m.row == req.row &&
            m.col == req.col));
      if (self) return "query item in its own result: " + Describe(m);
    }
  }
  return CheckMatchList(book, req.kind, qvec, req.k, resp.matches,
                        submitted_ns);
}

std::string CheckAsk(const Book& book, const ReadReq& req,
                     const std::vector<float>& qvec, const AskResponse& resp,
                     int64_t submitted_ns) {
  std::string err = CheckMatchList(book, ReadKind::kAsk, qvec, req.k,
                                   resp.tables, submitted_ns);
  if (!err.empty()) return "ask: " + err;
  if (!IsValidUtf8(resp.answer)) {
    if (resp.tables.empty() || !book.by_id.at(resp.tables[0].table_id).astral) {
      return "ask: invalid UTF-8 in the answer";
    }
  }
  if (!resp.tables.empty() &&
      resp.answer.find("[" + resp.tables[0].table_id + "]") ==
          std::string::npos) {
    return "ask: answer does not name the top table";
  }
  return "";
}

bool SameQuery(const QueryResponse& a, const QueryResponse& b) {
  if (a.candidates != b.candidates || a.matches.size() != b.matches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.matches.size(); ++i) {
    const ServiceMatch& x = a.matches[i];
    const ServiceMatch& y = b.matches[i];
    if (x.table_id != y.table_id || x.caption != y.caption || x.col != y.col ||
        x.row != y.row || x.entity != y.entity ||
        std::memcmp(&x.score, &y.score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameAsk(const AskResponse& a, const AskResponse& b) {
  QueryResponse qa, qb;
  qa.matches = a.tables;
  qb.matches = b.tables;
  return a.answer == b.answer && SameQuery(qa, qb);
}

std::string CheckLiveSet(const std::set<std::string>& tracked,
                         const std::vector<std::string>& served) {
  const std::set<std::string> got(served.begin(), served.end());
  if (got.size() != served.size()) return "duplicate live ids after reopen";
  if (got == tracked) return "";
  for (const std::string& id : tracked) {
    if (!got.count(id)) return "tracked id missing after reopen: " + id;
  }
  for (const std::string& id : got) {
    if (!tracked.count(id)) return "untracked id live after reopen: " + id;
  }
  return "live sets differ";
}

std::vector<std::string> SelfTest() {
  Book book;
  const std::vector<float> q = {1, 0, 0, 0};
  auto add = [&](const std::string& id, std::vector<float> v,
                 const std::string& caption) {
    BookEntry e;
    e.table = v;
    e.cols[1] = v;
    e.ents[{1, 1}] = v;
    e.cell_text[{1, 1}] = "cell " + id;
    e.caption = caption;
    book.by_id[id] = std::move(e);
  };
  add("a", {1, 1, 0, 0}, "Overall survival");
  add("b", {1, 0, 1, 1}, "स्तन कैंसर 乳腺癌");
  add("gone", {1, 0, 0, 0}, "removed");
  book.removed_at_ns["gone"] = 100;

  ReadReq req;
  req.kind = ReadKind::kTable;
  req.table_id = "query";
  req.k = 2;
  QueryResponse good;
  good.matches.resize(2);
  good.matches[0].table_id = "a";
  good.matches[0].caption = "Overall survival";
  good.matches[0].score = static_cast<float>(Cosine(q, book.by_id["a"].table));
  good.matches[1].table_id = "b";
  good.matches[1].caption = "स्तन कैंसर 乳腺癌";
  good.matches[1].score = static_cast<float>(Cosine(q, book.by_id["b"].table));

  std::vector<std::string> silent;
  if (!CheckQuery(book, req, q, good, 200).empty()) {
    silent.push_back("a correct answer was rejected");
  }
  auto expect_fail = [&](const std::string& name, const QueryResponse& bad,
                         const ReadReq& r) {
    if (CheckQuery(book, r, q, bad, 200).empty()) silent.push_back(name);
  };
  QueryResponse bad = good;
  bad.matches[1].score += 1e-3f;
  expect_fail("perturbed score", bad, req);
  bad = good;
  std::swap(bad.matches[0], bad.matches[1]);
  expect_fail("order", bad, req);
  bad = good;
  bad.matches.push_back(good.matches[1]);
  ReadReq wide = req;
  wide.k = 3;
  expect_fail("duplicate match", bad, wide);
  expect_fail("more than k", bad, req);
  bad = good;
  bad.matches[1].table_id = "gone";
  bad.matches[1].caption = "removed";
  bad.matches[1].score = 1.0f;
  std::swap(bad.matches[0], bad.matches[1]);
  expect_fail("resurrected removed table", bad, req);
  bad = good;
  // U+1F600 as a decoder that converts each surrogate half separately
  // emits it: CESU-8 bytes, not valid UTF-8.
  bad.matches[1].caption = "\xED\xA0\xBD\xED\xB8\x80";
  expect_fail("mangled caption (CESU-8)", bad, req);
  bad = good;
  bad.matches[1].caption = "स्तन कैंसर";
  expect_fail("caption differs from sent text", bad, req);
  ReadReq self = req;
  self.table_id = "a";
  expect_fail("query item in its own result", good, self);

  ReadReq ent = req;
  ent.kind = ReadKind::kEntity;
  QueryResponse ents;
  ents.matches.resize(1);
  ents.matches[0].table_id = "a";
  ents.matches[0].caption = "Overall survival";
  ents.matches[0].row = 1;
  ents.matches[0].col = 1;
  ents.matches[0].entity = "cell a";
  ents.matches[0].score = good.matches[0].score;
  if (!CheckQuery(book, ent, q, ents, 200).empty()) {
    silent.push_back("a correct entity answer was rejected");
  }
  ents.matches[0].entity = "cell a\xF0\x9F";
  expect_fail("truncated entity text", ents, ent);

  QueryResponse other = good;
  other.candidates += 1;
  if (SameQuery(good, other)) silent.push_back("executor vs direct");
  if (CheckLiveSet({"a", "b"}, {"a", "b", "gone"}).empty()) {
    silent.push_back("live set after reopen");
  }
  AskResponse ask;
  ask.tables = good.matches;
  ask.answer = "grounded in table 'Overall survival' [a]";
  ReadReq ask_req = req;
  ask_req.kind = ReadKind::kAsk;
  if (!CheckAsk(book, ask_req, q, ask, 200).empty()) {
    silent.push_back("a correct ask answer was rejected");
  }
  ask.answer = "grounded in table 'Overall survival' [b]";
  if (CheckAsk(book, ask_req, q, ask, 200).empty()) {
    silent.push_back("ask answer naming the wrong table");
  }
  return silent;
}

}  // namespace perfbench

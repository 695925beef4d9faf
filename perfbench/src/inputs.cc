#include "inputs.h"

#include <cstdio>
#include <cstdlib>

#include "datagen/corpus_gen.h"

namespace perfbench {

using tabbin::Table;
using tabbin::Value;
using tabbin::ValueKind;

namespace {

// The workloads. Open-loop rates are constants of the benchmark, at
// 30-45 % of the executor's serial capacity measured on a 4-core host;
// they are never calibrated per run, so two runs always offer the same
// load.
const std::vector<Workload> kWorkloads = {
    // Candidate generation (a large LSH pool) and float rerank dominate
    // reads; the only workload on the single-shard service.
    {"serve_lsh", /*round_ms*/ 2500, 2000, 1, false, false, 3, 150.0,
     /*closed_window*/ 100,
     /*open*/ 30, /*seq*/ 120, /*closed*/ 200, /*inline*/ 24, /*asks*/ 48,
     /*ingest*/ 24, /*astral*/ 1, /*batch*/ 8, /*beside*/ 9,
     /*compact_each_round*/ false, /*saves*/ 1, /*reopens*/ 2},
    // A direct read is cheap, so the executor's fixed cost dominates;
    // the graph walk over mapped pages carries the rest, and graph
    // inserts dominate ingest.
    {"serve_hnsw_mapped", /*round_ms*/ 1700, 2000, 4, true, true, 3, 600.0,
     /*closed_window*/ 250,
     /*open*/ 90, /*seq*/ 250, /*closed*/ 750, /*inline*/ 24, /*asks*/ 48,
     /*ingest*/ 24, /*astral*/ 1, /*batch*/ 8, /*beside*/ 9,
     /*compact_each_round*/ false, /*saves*/ 1, /*reopens*/ 2},
    // A stream of never-seen JSON tables through the write lane: encoding
    // dominates, the encoder cache mostly misses, candidates are cheap.
    // Not in BENCHMARK.json (see README).
    {"ingest_churn", /*round_ms*/ 2000, 300, 4, false, false, 3, 600.0,
     /*closed_window*/ 250,
     /*open*/ 100, /*seq*/ 100, /*closed*/ 500, /*inline*/ 16, /*asks*/ 32,
     /*ingest*/ 40, /*astral*/ 2, /*batch*/ 8, /*beside*/ 6,
     /*compact_each_round*/ true, /*saves*/ 1, /*reopens*/ 1},
};

// splitmix64: the benchmark's own generator, so request mixes and
// multi-script choices never depend on the library's RNG.
struct Mix {
  uint64_t s;
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
};

const std::vector<std::vector<std::string>> kScripts = {
    {"overall survival", "tumor stage", "median follow up"},
    {"tumeur maligne", "Überleben", "résultats cliniques"},
    {"स्तन कैंसर", "उत्तरजीविता दर", "रोगी संख्या", "उपचार परिणाम"},
    {"乳腺癌", "生存率", "患者数", "治療効果", "臨床試験"},
};
// Astral-plane text: each character is one UTF-16 surrogate pair once
// escaped.
const std::vector<std::string> kAstral = {"🧬", "😀", "𝛼", "🩺", "𠀋"};

// The generator draws a dataset-wide entity catalog from its seed, and
// the catalog sets token counts and so encode and ranking costs. One
// catalog per run made those costs swing with --seed; drawing the tables
// from kParts generator seeds averages the catalogs out. `stream` picks
// disjoint generator seeds for the corpus (1) and everything else (2).
constexpr int kParts = 8;

std::vector<Table> Generate(int n, uint64_t seed, int stream) {
  std::vector<Table> out;
  for (int part = 0; part < kParts && n > 0; ++part) {
    const int take = n / kParts + (part < n % kParts ? 1 : 0);
    if (take == 0) continue;
    tabbin::GeneratorOptions g;
    g.num_tables = take;
    g.seed = 2 * (seed * kParts + static_cast<uint64_t>(part)) +
             static_cast<uint64_t>(stream);
    for (Table& t : tabbin::GenerateDataset("cancerkg", g).corpus.tables) {
      t.set_id("cancerkg-" + std::to_string(out.size()));
      out.push_back(std::move(t));
    }
  }
  return out;
}

// First string cell of the data region, or (-1, -1).
std::pair<int, int> FirstStringCell(const Table& t) {
  auto cells = EntityCells(t, 1);
  return cells.empty() ? std::make_pair(-1, -1) : cells[0];
}

void AppendCellText(Table* t, int r, int c, const std::string& extra) {
  const std::string text = t->cell(r, c).value.text() + " " + extra;
  t->SetValue(r, c, Value::String(text));
}

// The stored-read mix, columns : tables : entities = 2:1:2, as a fixed
// cycle: every run and every phase gets exactly these shares, so a
// per-kind latency weighs the same in every run.
constexpr ReadKind kStoredMix[] = {ReadKind::kColumn, ReadKind::kTable,
                                   ReadKind::kEntity, ReadKind::kColumn,
                                   ReadKind::kEntity};

ReadReq RandomStoredRead(const std::vector<Table>& corpus, int slot, Mix* mix) {
  const ReadKind kind = kStoredMix[slot % 5];
  for (;;) {
    const Table& t = corpus[static_cast<size_t>(
        mix->Below(static_cast<int>(corpus.size())))];
    ReadReq r;
    r.table_id = t.id();
    if (kind == ReadKind::kTable) {
      r.kind = ReadKind::kTable;
      return r;
    }
    if (kind == ReadKind::kColumn) {
      if (t.data_cols() <= 0) continue;
      r.kind = ReadKind::kColumn;
      r.col = t.vmd_cols() + mix->Below(t.data_cols());
      return r;
    }
    auto cells = EntityCells(t);
    if (cells.empty()) continue;
    auto cell = cells[static_cast<size_t>(mix->Below(static_cast<int>(cells.size())))];
    r.kind = ReadKind::kEntity;
    r.row = cell.first;
    r.col = cell.second;
    return r;
  }
}

// An inline read of a fresh table; `kind` rotates so every endpoint sees
// unseen tables.
ReadReq InlineRead(const Table& t, int index, int rotation) {
  ReadReq r;
  r.inline_table = index;
  r.kind = static_cast<ReadKind>(rotation % 3);
  if (r.kind == ReadKind::kEntity) {
    auto cell = FirstStringCell(t);
    if (cell.first < 0) {
      r.kind = ReadKind::kColumn;
    } else {
      r.row = cell.first;
      r.col = cell.second;
    }
  }
  if (r.kind == ReadKind::kColumn) {
    if (t.data_cols() <= 0) {
      r.kind = ReadKind::kTable;
    } else {
      r.col = t.vmd_cols() + rotation % t.data_cols();
    }
  }
  return r;
}

std::string RandomQuestion(const std::vector<Table>& corpus, Mix* mix) {
  std::string q;
  const int words = 2 + mix->Below(3);
  for (int i = 0; i < words; ++i) {
    const Table& t = corpus[static_cast<size_t>(
        mix->Below(static_cast<int>(corpus.size())))];
    std::vector<std::string> parts;
    std::string cur;
    for (char ch : t.caption() + " ") {
      if (ch == ' ') {
        if (!cur.empty()) parts.push_back(cur);
        cur.clear();
      } else {
        cur += ch;
      }
    }
    if (parts.empty()) continue;
    if (!q.empty()) q += ' ';
    q += parts[static_cast<size_t>(mix->Below(static_cast<int>(parts.size())))];
  }
  return q.empty() ? std::string("overall survival") : q;
}

void AppendCodePointEscape(unsigned cp, std::string* out) {
  char buf[16];
  if (cp >= 0x10000) {
    const unsigned v = cp - 0x10000;
    std::snprintf(buf, sizeof(buf), "\\u%04X\\u%04X", 0xD800 + (v >> 10),
                  0xDC00 + (v & 0x3FF));
  } else {
    std::snprintf(buf, sizeof(buf), "\\u%04X", cp);
  }
  *out += buf;
}

// Decodes one UTF-8 sequence at s[*i]; returns the code point or -1.
long DecodeUtf8(const std::string& s, size_t* i) {
  const auto b = [&](size_t k) { return static_cast<unsigned char>(s[k]); };
  const unsigned char c0 = b(*i);
  int len = 0;
  unsigned cp = 0;
  if (c0 < 0x80) {
    len = 1;
    cp = c0;
  } else if (c0 >= 0xC2 && c0 <= 0xDF) {
    len = 2;
    cp = c0 & 0x1F;
  } else if (c0 >= 0xE0 && c0 <= 0xEF) {
    len = 3;
    cp = c0 & 0x0F;
  } else if (c0 >= 0xF0 && c0 <= 0xF4) {
    len = 4;
    cp = c0 & 0x07;
  } else {
    return -1;
  }
  if (*i + static_cast<size_t>(len) > s.size()) return -1;
  for (int k = 1; k < len; ++k) {
    const unsigned char ck = b(*i + static_cast<size_t>(k));
    if ((ck & 0xC0) != 0x80) return -1;
    cp = (cp << 6) | (ck & 0x3F);
  }
  if ((len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000) ||
      cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    return -1;
  }
  *i += static_cast<size_t>(len);
  return static_cast<long>(cp);
}

void AppendJsonString(const std::string& s, std::string* out) {
  *out += '"';
  for (size_t i = 0; i < s.size();) {
    const long cp = DecodeUtf8(s, &i);
    if (cp < 0) {
      std::fprintf(stderr, "perfbench: input text is not UTF-8\n");
      std::abort();
    }
    if (cp == '"' || cp == '\\') {
      *out += '\\';
      *out += static_cast<char>(cp);
    } else if (cp >= 0x20 && cp < 0x7F) {
      *out += static_cast<char>(cp);
    } else {
      AppendCodePointEscape(static_cast<unsigned>(cp), out);
    }
  }
  *out += '"';
}

void AppendNumber(double d, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void AppendValue(const Value& v, std::string* out) {
  *out += "{\"k\":";
  AppendNumber(static_cast<double>(v.kind()), out);
  switch (v.kind()) {
    case ValueKind::kEmpty:
      break;
    case ValueKind::kString:
      *out += ",\"t\":";
      AppendJsonString(v.text(), out);
      break;
    case ValueKind::kNumber:
      *out += ",\"a\":";
      AppendNumber(v.number(), out);
      break;
    case ValueKind::kRange:
    case ValueKind::kGaussian:
      *out += ",\"a\":";
      AppendNumber(v.range_lo(), out);
      *out += ",\"b\":";
      AppendNumber(v.range_hi(), out);
      break;
  }
  if (v.has_unit()) {
    *out += ",\"u\":";
    AppendNumber(static_cast<double>(v.unit()), out);
    *out += ",\"ut\":";
    AppendJsonString(v.unit_text(), out);
  }
  *out += '}';
}

void AppendTable(const Table& t, std::string* out) {
  *out += "{\"rows\":" + std::to_string(t.rows()) +
          ",\"cols\":" + std::to_string(t.cols()) +
          ",\"hmd\":" + std::to_string(t.hmd_rows()) +
          ",\"vmd\":" + std::to_string(t.vmd_cols());
  const std::pair<const char*, const std::string*> strings[] = {
      {"caption", &t.caption()}, {"topic", &t.topic()}, {"id", &t.id()}};
  for (const auto& [key, value] : strings) {
    if (value->empty()) continue;
    *out += ",\"";
    *out += key;
    *out += "\":";
    AppendJsonString(*value, out);
  }
  *out += ",\"cells\":[";
  bool first = true;
  for (int r = 0; r < t.rows(); ++r) {
    for (int c = 0; c < t.cols(); ++c) {
      const tabbin::Cell& cell = t.cell(r, c);
      if (cell.is_empty()) continue;
      if (!first) *out += ',';
      first = false;
      *out += "{\"r\":" + std::to_string(r) + ",\"c\":" + std::to_string(c);
      if (!cell.value.is_empty()) {
        *out += ",\"v\":";
        AppendValue(cell.value, out);
      }
      if (cell.has_nested()) {
        *out += ",\"n\":";
        AppendTable(*cell.nested, out);
      }
      *out += '}';
    }
  }
  *out += "]}";
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::pair<int, int>> EntityCells(const Table& t, int cap) {
  std::vector<std::pair<int, int>> out;
  for (int r = t.hmd_rows(); r < t.rows(); ++r) {
    for (int c = t.vmd_cols(); c < t.cols(); ++c) {
      if (static_cast<int>(out.size()) >= cap) return out;
      const tabbin::Cell& cell = t.cell(r, c);
      if (cell.has_nested() || cell.value.kind() != ValueKind::kString) {
        continue;
      }
      out.emplace_back(r, c);
    }
  }
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, int rounds) {
  Inputs in;
  in.corpus = Generate(w.corpus_tables, seed, 1);
  Mix mix{seed * 0x2545F4914F6CDD1Dull + 17};

  const int stored = rounds * (w.open_reads + w.seq_reads + w.closed_reads);
  for (int i = 0; i < stored; ++i) {
    in.stored_reads.push_back(RandomStoredRead(in.corpus, i, &mix));
  }

  // Phase 3 and phase 4 inline reads each get a table nobody has seen.
  const int beside_inline = w.beside_reads - w.beside_reads / 3;
  const int seeded_docs = w.ingest_docs - w.astral_docs;
  std::vector<Table> extra = Generate(
      rounds * (w.inline_reads + beside_inline + seeded_docs), seed, 2);
  size_t next = 0;
  auto take_inline = [&](int rotation) {
    Table t = std::move(extra[next++]);
    t.set_id("inl-" + std::to_string(in.inline_tables.size()));
    in.inline_tables.push_back(std::move(t));
    const int index = static_cast<int>(in.inline_tables.size()) - 1;
    return InlineRead(in.inline_tables.back(), index, rotation);
  };
  for (int i = 0; i < rounds * w.inline_reads; ++i) {
    in.inline_reads.push_back(take_inline(i % 3));
  }
  for (int i = 0; i < rounds * w.asks; ++i) {
    ReadReq ask;
    ask.kind = ReadKind::kAsk;
    ask.k = 5;
    ask.question = RandomQuestion(in.corpus, &mix);
    in.asks.push_back(std::move(ask));
  }
  for (int i = 0; i < rounds * w.beside_reads; ++i) {
    if (i % 3 == 2) {
      ReadReq ask;
      ask.kind = ReadKind::kAsk;
      ask.k = 5;
      ask.question = RandomQuestion(in.corpus, &mix);
      in.beside_reads.push_back(std::move(ask));
    } else {
      in.beside_reads.push_back(take_inline(mix.Below(3)));
    }
  }

  // Astral documents do not depend on the seed: they fail on every seed
  // for as long as the JSON decoder mishandles surrogate pairs.
  // Generator seed 0 is outside both streams.
  tabbin::GeneratorOptions astral_gen;
  astral_gen.num_tables = w.astral_docs;
  astral_gen.seed = 0;
  const std::vector<Table> astral_base =
      tabbin::GenerateDataset("cancerkg", astral_gen).corpus.tables;
  int seeded = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int j = 0; j < w.ingest_docs; ++j) {
      // Astral documents sit at fixed stream positions.
      const int stride = w.astral_docs > 0 ? w.ingest_docs / w.astral_docs : 0;
      const bool astral = stride > 0 && j % stride == stride - 1;
      IngestDoc doc;
      doc.astral = astral;
      if (astral) {
        const int a = j / stride;
        doc.sent = astral_base[static_cast<size_t>(a)];
        doc.sent.set_id("astral-" + std::to_string(round) + "-" +
                        std::to_string(a));
        doc.sent.set_caption(doc.sent.caption() + " " +
                             kAstral[static_cast<size_t>(a) % kAstral.size()] +
                             " trial " + std::to_string(round));
        auto cell = FirstStringCell(doc.sent);
        if (cell.first >= 0) {
          AppendCellText(&doc.sent, cell.first, cell.second,
                         kAstral[static_cast<size_t>(a + 1) % kAstral.size()] +
                             " arm " + std::to_string(round));
          doc.probe_row = cell.first;
          doc.probe_col = cell.second;
        }
        doc.remove = true;  // served text is wrong; do not keep it
      } else {
        doc.sent = std::move(extra[next++]);
        doc.sent.set_id("ing-" + std::to_string(seeded));
        const auto& script =
            kScripts[static_cast<size_t>(mix.Below(static_cast<int>(kScripts.size())))];
        doc.sent.set_caption(
            doc.sent.caption() + " " +
            script[static_cast<size_t>(mix.Below(static_cast<int>(script.size())))]);
        auto cell = FirstStringCell(doc.sent);
        if (cell.first >= 0) {
          AppendCellText(&doc.sent, cell.first, cell.second,
                         script[static_cast<size_t>(
                             mix.Below(static_cast<int>(script.size())))]);
          doc.probe_row = cell.first;
          doc.probe_col = cell.second;
        }
        doc.remove = seeded % 4 != 0;  // churn: three of four go again
        ++seeded;
      }
      doc.json = WriteTableJson(doc.sent);
      in.docs.push_back(std::move(doc));
    }
  }
  return in;
}

std::string WriteTableJson(const Table& t) {
  std::string out;
  AppendTable(t, &out);
  return out;
}

bool IsValidUtf8(const std::string& s) {
  for (size_t i = 0; i < s.size();) {
    if (DecodeUtf8(s, &i) < 0) return false;
  }
  return true;
}

}  // namespace perfbench

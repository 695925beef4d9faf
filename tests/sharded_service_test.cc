// Cross-shard equivalence and stress suite for ShardedTabBinService.
//
// The load-bearing claim of the sharded serving core is that hash
// partitioning is *invisible* to callers: for any shard count, every
// endpoint returns byte-identical ranked results to the single-shard
// TabBinService over the same corpus — including after interleaved
// Add/Remove/replace/Compact churn, through snapshot save/load, and
// across re-partitioning (loading an 8-shard snapshot into 3 shards,
// or a legacy single-service snapshot into N shards). These tests are
// the contract every future scaling PR must keep; CI runs them under
// ASan/UBSan and TSan, plus a dedicated `ctest -R sharded` smoke step.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/corpus_gen.h"
#include "service/sharded_service.h"
#include "service/table_service.h"
#include "store/paged_snapshot.h"
#include "util/threadpool.h"
#include "util/snapshot.h"

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
    gen.seed = 11;
    return new LabeledCorpus(GenerateDataset("cancerkg", gen));
  }();
  return *corpus;
}

std::shared_ptr<TabBiNSystem> SharedSystem() {
  static std::shared_ptr<TabBiNSystem> sys = std::make_shared<TabBiNSystem>(
      TabBiNSystem::Create(SharedCorpus().corpus.tables, TinyConfig()));
  return sys;
}

void ExpectSameMatches(const std::vector<ServiceMatch>& a,
                       const std::vector<ServiceMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].table_id, b[i].table_id) << "rank " << i;
    EXPECT_EQ(a[i].caption, b[i].caption) << "rank " << i;
    EXPECT_EQ(a[i].col, b[i].col) << "rank " << i;
    EXPECT_EQ(a[i].row, b[i].row) << "rank " << i;
    EXPECT_EQ(a[i].entity, b[i].entity) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bitwise
  }
}

// Compares every endpoint of two services over the given live tables:
// id-addressed tables/columns/entities, inline queries, and Ask.
void ExpectEquivalent(const TabBinServing& ref, const TabBinServing& svc,
                      const std::vector<Table>& probes) {
  ASSERT_EQ(ref.NumLiveTables(), svc.NumLiveTables());
  EXPECT_EQ(ref.LiveTableIds(), svc.LiveTableIds());
  for (const Table& t : probes) {
    SCOPED_TRACE("probe table " + t.id());
    auto rt = ref.SimilarTables({t.id(), nullptr, 10});
    auto st = svc.SimilarTables({t.id(), nullptr, 10});
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ExpectSameMatches(rt.value().matches, st.value().matches);
    // Every column, including unindexed metadata (VMD) columns, which
    // exercise the resolve-then-encode path.
    for (int c = 0; c < t.cols(); ++c) {
      SCOPED_TRACE("col " + std::to_string(c));
      auto rc = ref.SimilarColumns({t.id(), nullptr, c, 10});
      auto sc = svc.SimilarColumns({t.id(), nullptr, c, 10});
      ASSERT_TRUE(rc.ok() && sc.ok());
      ExpectSameMatches(rc.value().matches, sc.value().matches);
    }
    // Inline (never-inserted) probe under a fresh identity.
    Table inline_probe = t;
    inline_probe.set_id("");
    auto ri = ref.SimilarTables({"", &inline_probe, 10});
    auto si = svc.SimilarTables({"", &inline_probe, 10});
    ASSERT_TRUE(ri.ok() && si.ok());
    ExpectSameMatches(ri.value().matches, si.value().matches);
  }
  // Entity probes from the labeled corpus.
  int entity_probes = 0;
  for (const auto& q : SharedCorpus().entities) {
    if (entity_probes >= 4) break;
    const Table& t =
        SharedCorpus().corpus.tables[static_cast<size_t>(q.table_index)];
    bool live = false;
    for (const Table& p : probes) live |= (p.id() == t.id());
    if (!live) continue;
    ++entity_probes;
    SCOPED_TRACE("entity probe " + t.id());
    auto re = ref.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    auto se = svc.SimilarEntities({t.id(), nullptr, q.row, q.col, 8});
    ASSERT_TRUE(re.ok() && se.ok());
    ExpectSameMatches(re.value().matches, se.value().matches);
  }
  // Free-text grounding.
  for (const std::string& q :
       {std::string("overall survival months"),
        probes.empty() ? std::string("tumor") : probes.front().caption()}) {
    SCOPED_TRACE("ask: " + q);
    auto ra = ref.Ask({q, 5});
    auto sa = svc.Ask({q, 5});
    ASSERT_TRUE(ra.ok() && sa.ok());
    EXPECT_EQ(ra.value().answer, sa.value().answer);
    ExpectSameMatches(ra.value().tables, sa.value().tables);
  }
}

class ShardedEquivalenceTest : public ::testing::TestWithParam<int> {};

// Acceptance: shards ∈ {1, 3, 8} answer byte-identically to the
// single-shard TabBinService on the same corpus — all query types.
TEST_P(ShardedEquivalenceTest, AllEndpointsMatchSingleShardService) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService ref(SharedSystem());
  ShardedTabBinService svc(SharedSystem(), GetParam());
  EXPECT_EQ(svc.num_shards(), GetParam());

  // Incremental adds in two batches on the sharded side, one batch on
  // the reference — partitioning AND batching must both be invisible.
  const size_t half = tables.size() / 2;
  auto r1 = ref.AddTables(tables);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(svc.AddTables(std::vector<Table>(tables.begin(),
                                               tables.begin() + half))
                  .ok());
  ASSERT_TRUE(svc.AddTables(std::vector<Table>(tables.begin() + half,
                                               tables.end()))
                  .ok());
  ExpectEquivalent(ref, svc, tables);
}

// Acceptance: equivalence survives interleaved Add/Remove/replace/
// Compact churn.
TEST_P(ShardedEquivalenceTest, EquivalentAfterChurnAndCompact) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService ref(SharedSystem());
  ShardedTabBinService svc(SharedSystem(), GetParam());
  ASSERT_TRUE(ref.AddTables(tables).ok());
  ASSERT_TRUE(svc.AddTables(tables).ok());

  // Remove two, replace one twice, re-add a removed one.
  for (const std::string& id : {tables[2].id(), tables[9].id()}) {
    ASSERT_TRUE(ref.RemoveTable(id).ok());
    ASSERT_TRUE(svc.RemoveTable(id).ok());
  }
  for (int round = 0; round < 2; ++round) {
    Table updated = tables[5];
    updated.set_caption("rev " + std::to_string(round));
    auto rr = ref.AddTables({updated});
    auto sr = svc.AddTables({updated});
    ASSERT_TRUE(rr.ok() && sr.ok());
    EXPECT_EQ(sr.value().tables_replaced, 1);
    EXPECT_EQ(sr.value().tables_added, 0);
  }
  ASSERT_TRUE(ref.AddTables({tables[2]}).ok());
  ASSERT_TRUE(svc.AddTables({tables[2]}).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() == tables[9].id()) continue;
    if (t.id() == tables[5].id()) {
      Table updated = t;
      updated.set_caption("rev 1");
      live.push_back(updated);
      continue;
    }
    live.push_back(t);
  }
  ExpectEquivalent(ref, svc, live);

  // Compaction reclaims tombstones on both sides without changing any
  // answer.
  ASSERT_TRUE(ref.Compact().ok());
  ASSERT_TRUE(svc.Compact().ok());
  EXPECT_EQ(svc.NumIndexedColumns(), ref.NumIndexedColumns());
  ExpectEquivalent(ref, svc, live);
}

// Compact fans out across shards, each rebuilding its own indexes (its
// graphs, under hnsw) in parallel. After tombstones on several shards,
// an 8-shard Compact must still answer byte-identically to the 1-shard
// one, for both candidate generators. The beam covers every live node,
// so the hnsw walk is exact at any shard count.
TEST(ShardedServiceTest, ParallelCompactMatchesSingleShardForLshAndHnsw) {
  const auto& tables = SharedCorpus().corpus.tables;
  for (int kind : {kIndexLsh, kIndexHnsw}) {
    SCOPED_TRACE("index_kind=" + std::to_string(kind));
    ServiceOptions opts;
    opts.index_kind = kind;
    opts.hnsw_ef_search = 4096;
    TabBinService ref(SharedSystem(), opts);
    ShardedTabBinService svc(SharedSystem(), 8, opts);
    ASSERT_TRUE(ref.AddTables(tables).ok());
    ASSERT_TRUE(svc.AddTables(tables).ok());
    std::vector<Table> live;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (i % 4 == 1) {
        ASSERT_TRUE(ref.RemoveTable(tables[i].id()).ok());
        ASSERT_TRUE(svc.RemoveTable(tables[i].id()).ok());
      } else {
        live.push_back(tables[i]);
      }
    }
    ASSERT_TRUE(ref.Compact().ok());
    ASSERT_TRUE(svc.Compact().ok());
    EXPECT_EQ(svc.NumIndexedColumns(), ref.NumIndexedColumns());
    ExpectEquivalent(ref, svc, live);
  }
}

// The graph sections ("store.s<i>.hnsw.*") of a service's v2 store,
// by name.
std::map<std::string, std::vector<uint8_t>> GraphSections(
    const ShardedTabBinService& svc, const std::string& path) {
  PagedSnapshotWriter w;
  svc.AppendStore(&w);
  EXPECT_TRUE(w.ToFile(path).ok());
  auto reader = PagedSnapshotReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::map<std::string, std::vector<uint8_t>> out;
  if (!reader.ok()) return out;
  for (const std::string& name : reader.value().SectionNames()) {
    if (name.find(".hnsw.") == std::string::npos) continue;
    auto span = reader.value().SectionSpan(name);
    EXPECT_TRUE(span.ok()) << name;
    if (span.ok()) {
      out[name].assign(span.value().data,
                       span.value().data + span.value().size);
    }
  }
  std::remove(path.c_str());
  return out;
}

void ExpectSameReport(const AddReport& a, const AddReport& b) {
  EXPECT_EQ(a.tables_added, b.tables_added);
  EXPECT_EQ(a.tables_replaced, b.tables_replaced);
  EXPECT_EQ(a.columns_indexed, b.columns_indexed);
  EXPECT_EQ(a.entities_indexed, b.entities_indexed);
}

ServiceOptions ExactHnswOptions() {
  ServiceOptions opts;
  opts.index_kind = kIndexHnsw;
  opts.hnsw_ef_search = 4096;  // the beam covers every node: exact walks
  return opts;
}

// One AddTables of the whole corpus builds every touched shard's graphs
// at once, one job per (shard, graph). Adding the same tables one at a
// time touches a single shard per call. Both must give byte-identical
// graphs (each graph still links its rows in row order), the same
// report and the same answers. The batch carries two ids twice, so the
// first copies die inside the batch, before their rows are linked, and
// their tombstones (part of the graph bytes) must still be set.
TEST(ShardedServiceTest, ParallelGraphBuildMatchesOneTableAtATime) {
  const auto& tables = SharedCorpus().corpus.tables;
  std::vector<Table> batch(tables.begin(), tables.end());
  std::vector<Table> live(tables.begin(), tables.end());
  for (size_t i : {size_t{4}, size_t{11}}) {
    Table revised = tables[i];
    revised.set_caption("revised " + tables[i].caption());
    batch.push_back(revised);
    live[i] = revised;
  }
  for (int shards : {4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedTabBinService at_once(SharedSystem(), shards, ExactHnswOptions());
    ShardedTabBinService one_by_one(SharedSystem(), shards,
                                    ExactHnswOptions());
    auto report = at_once.AddTables(batch);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    AddReport summed;
    for (const Table& t : batch) {
      auto r = one_by_one.AddTables({t});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      summed.tables_added += r.value().tables_added;
      summed.tables_replaced += r.value().tables_replaced;
      summed.columns_indexed += r.value().columns_indexed;
      summed.entities_indexed += r.value().entities_indexed;
    }
    ExpectSameReport(report.value(), summed);
    EXPECT_EQ(report.value().tables_replaced, 2);

    const auto batch_graphs =
        GraphSections(at_once, "/tmp/tabbin_graph_batch.tbsn");
    const auto single_graphs =
        GraphSections(one_by_one, "/tmp/tabbin_graph_single.tbsn");
    EXPECT_EQ(batch_graphs.size(), static_cast<size_t>(6 * shards));
    ASSERT_EQ(batch_graphs.size(), single_graphs.size());
    for (const auto& [name, bytes] : batch_graphs) {
      auto it = single_graphs.find(name);
      ASSERT_NE(it, single_graphs.end()) << name;
      EXPECT_TRUE(bytes == it->second) << name << " differs";
    }
    ExpectEquivalent(one_by_one, at_once, live);
  }
}

// A table replaced inside the batch that first added it dies before its
// graph rows are linked. Its rows are tombstoned after the inserts, so
// no answer ever carries the dead copy, and every candidate count equals
// the one-at-a-time service's.
TEST(ShardedServiceTest, SameIdTwiceInOneBatchNeverServesTheDeadCopy) {
  const auto& tables = SharedCorpus().corpus.tables;
  Table dead = tables[3];
  dead.set_caption("dead copy");
  Table kept = tables[3];
  kept.set_caption("kept copy");
  std::vector<Table> batch = {dead};
  batch.insert(batch.end(), tables.begin(), tables.end());
  batch.push_back(kept);

  ShardedTabBinService svc(SharedSystem(), 8, ExactHnswOptions());
  ShardedTabBinService ref(SharedSystem(), 8, ExactHnswOptions());
  auto report = svc.AddTables(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().tables_added, static_cast<int>(tables.size()));
  EXPECT_EQ(report.value().tables_replaced, 2);
  for (const Table& t : batch) ASSERT_TRUE(ref.AddTables({t}).ok());

  const std::string id = tables[3].id();
  auto expect_no_dead_copy = [&](const Result<QueryResponse>& got,
                                 const Result<QueryResponse>& want) {
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got.value().candidates, want.value().candidates);
    ExpectSameMatches(got.value().matches, want.value().matches);
    std::set<std::pair<int, int>> seen;  // (col, row) of the id's matches
    for (const ServiceMatch& m : got.value().matches) {
      if (m.table_id != id) continue;
      EXPECT_EQ(m.caption, "kept copy");
      EXPECT_TRUE(seen.emplace(m.col, m.row).second)
          << "the id is returned twice at col " << m.col;
    }
  };
  // The dead copy's own content as an inline probe: it would score 1.0.
  expect_no_dead_copy(svc.SimilarTables({"", &dead, 40}),
                      ref.SimilarTables({"", &dead, 40}));
  for (int c = dead.vmd_cols(); c < dead.cols(); ++c) {
    expect_no_dead_copy(svc.SimilarColumns({"", &dead, c, 40}),
                        ref.SimilarColumns({"", &dead, c, 40}));
  }
  expect_no_dead_copy(svc.SimilarTables({id, nullptr, 40}),
                      ref.SimilarTables({id, nullptr, 40}));
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedEquivalenceTest,
                         ::testing::Values(1, 3, 8));

TEST(ShardedServiceTest, HashPartitioningActuallySpreadsTables) {
  ShardedTabBinService svc(SharedSystem(), 8);
  ASSERT_TRUE(svc.AddTables(SharedCorpus().corpus.tables).ok());
  int populated = 0;
  for (int s = 0; s < svc.num_shards(); ++s) {
    populated += svc.ShardLiveCount(s) > 0 ? 1 : 0;
  }
  // 18 tables over 8 shards: a degenerate hash would put them all in
  // one shard.
  EXPECT_GT(populated, 1);
  // Routing is stable: RemoveTable by id finds every table.
  for (const Table& t : SharedCorpus().corpus.tables) {
    EXPECT_TRUE(svc.RemoveTable(t.id()).ok()) << t.id();
  }
  EXPECT_EQ(svc.NumLiveTables(), 0u);
}

TEST(ShardedServiceTest, StatusErrorEdgesMatchSingleService) {
  ShardedTabBinService svc(SharedSystem(), 3);
  ASSERT_TRUE(svc.AddTables({SharedCorpus().corpus.tables[0]}).ok());
  const std::string id = SharedCorpus().corpus.tables[0].id();
  EXPECT_EQ(svc.SimilarTables({"no-such-id", nullptr, 5}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, -1, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, 999, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.SimilarColumns({id, nullptr, 0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.SimilarEntities({id, nullptr, 999, 0, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(svc.Ask({"", 5}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.RemoveTable("no-such-id").code(), StatusCode::kNotFound);
  Table broken;
  EXPECT_EQ(svc.SimilarTables({"", &broken, 5}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Snapshots: round-trip, re-partitioning, format cross-compatibility
// ---------------------------------------------------------------------------

TEST(ShardedSnapshotTest, RoundTripAnswersIdenticallyAtAnyShardCount) {
  const auto& tables = SharedCorpus().corpus.tables;
  ShardedTabBinService svc(SharedSystem(), 8);
  ASSERT_TRUE(svc.AddTables(tables).ok());
  ASSERT_TRUE(svc.RemoveTable(tables[3].id()).ok());

  const std::string path = "/tmp/tabbin_sharded_roundtrip.tbsn";
  ASSERT_TRUE(svc.Save(path).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() != tables[3].id()) live.push_back(t);
  }
  // Same shard count, fewer shards, and down to one: the stored rows
  // re-partition by hash and answers never change.
  for (int target : {8, 3, 1}) {
    SCOPED_TRACE("target shards " + std::to_string(target));
    auto loaded = ShardedTabBinService::Load(path, target);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->num_shards(), target);
    ExpectEquivalent(svc, *loaded.value(), live);
  }
  // Default target = the saved shard count.
  auto loaded = ShardedTabBinService::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->num_shards(), 8);
  std::remove(path.c_str());
}

TEST(ShardedSnapshotTest, SingleServiceSnapshotLoadsIntoShards) {
  const auto& tables = SharedCorpus().corpus.tables;
  TabBinService single(SharedSystem());
  ASSERT_TRUE(single.AddTables(tables).ok());
  ASSERT_TRUE(single.RemoveTable(tables[7].id()).ok());

  const std::string path = "/tmp/tabbin_single_to_sharded.tbsn";
  ASSERT_TRUE(single.Save(path).ok());

  std::vector<Table> live;
  for (const Table& t : tables) {
    if (t.id() != tables[7].id()) live.push_back(t);
  }
  auto sharded = ShardedTabBinService::Load(path, 8);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded.value()->num_shards(), 8);
  ExpectEquivalent(single, *sharded.value(), live);
  std::remove(path.c_str());
}

TEST(ShardedSnapshotTest, LoadServingAutoDetectsFormat) {
  const auto& tables = SharedCorpus().corpus.tables;
  const std::string sharded_path = "/tmp/tabbin_serving_sharded.tbsn";
  const std::string single_path = "/tmp/tabbin_serving_single.tbsn";
  {
    ShardedTabBinService svc(SharedSystem(), 3);
    ASSERT_TRUE(svc.AddTables(tables).ok());
    ASSERT_TRUE(svc.Save(sharded_path).ok());
    TabBinService single(SharedSystem());
    ASSERT_TRUE(single.AddTables(tables).ok());
    ASSERT_TRUE(single.Save(single_path).ok());
  }
  auto a = LoadServing(sharded_path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a.value()->NumLiveTables(), tables.size());
  auto b = LoadServing(single_path);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b.value()->NumLiveTables(), tables.size());
  // Override re-partitions either format.
  auto c = LoadServing(single_path, 4);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto ct = c.value()->SimilarTables({tables[0].id(), nullptr, 5});
  auto bt = b.value()->SimilarTables({tables[0].id(), nullptr, 5});
  ASSERT_TRUE(ct.ok() && bt.ok());
  ExpectSameMatches(bt.value().matches, ct.value().matches);
  std::remove(sharded_path.c_str());
  std::remove(single_path.c_str());
}

// --- Corrupt-input suite for the shard manifest ---------------------------
// Follows the snapshot_test.cc pattern: build a valid snapshot, corrupt
// one aspect, and require a ParseError — never a crash (CI runs these
// under ASan/UBSan).

std::map<std::string, std::vector<uint8_t>> SectionBytes(
    const SnapshotReader& snapshot) {
  std::map<std::string, std::vector<uint8_t>> out;
  for (const auto& name : snapshot.SectionNames()) {
    auto r = snapshot.Section(name);
    EXPECT_TRUE(r.ok());
    out[name] = std::move(r.value()).TakeBuffer();
  }
  return out;
}

Result<SnapshotReader> Reassemble(
    const std::map<std::string, std::vector<uint8_t>>& sections) {
  SnapshotWriter w;
  for (const auto& [name, bytes] : sections) {
    w.AddSection(name)->WriteBytes(bytes.data(), bytes.size());
  }
  return SnapshotReader::FromBuffer(w.Assemble());
}

std::vector<uint8_t> ManifestBytes(uint32_t shards,
                                   const std::vector<uint64_t>& counts) {
  BinaryWriter w;
  w.WriteU32(shards);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  w.WriteU64(total);
  for (uint64_t c : counts) w.WriteU64(c);
  return std::move(w).TakeBuffer();
}

class ShardedManifestCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedTabBinService svc(SharedSystem(), 2);
    ASSERT_TRUE(svc.AddTables(SharedCorpus().corpus.tables).ok());
    live0_ = svc.ShardLiveCount(0);
    live1_ = svc.ShardLiveCount(1);
    ASSERT_GT(live0_, 0u);
    ASSERT_GT(live1_, 0u);
    SnapshotWriter w;
    ASSERT_TRUE(svc.AppendTo(&w).ok());
    auto snapshot = SnapshotReader::FromBuffer(w.Assemble());
    ASSERT_TRUE(snapshot.ok());
    sections_ = SectionBytes(snapshot.value());
  }

  void ExpectParseError(
      const std::map<std::string, std::vector<uint8_t>>& sections,
      const std::string& what) {
    auto snapshot = Reassemble(sections);
    ASSERT_TRUE(snapshot.ok()) << what;  // container itself is valid
    auto loaded = ShardedTabBinService::FromSnapshot(snapshot.value());
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << what << ": " << loaded.status().ToString();
  }

  size_t live0_ = 0, live1_ = 0;
  std::map<std::string, std::vector<uint8_t>> sections_;
};

TEST_F(ShardedManifestCorruptionTest, IntactSnapshotLoads) {
  auto snapshot = Reassemble(sections_);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = ShardedTabBinService::FromSnapshot(snapshot.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->NumLiveTables(), live0_ + live1_);
}

TEST_F(ShardedManifestCorruptionTest, TruncatedManifestRejected) {
  auto corrupt = sections_;
  corrupt["sharded.manifest"].resize(2);
  ExpectParseError(corrupt, "manifest truncated to 2 bytes");
  corrupt["sharded.manifest"].clear();
  ExpectParseError(corrupt, "empty manifest");
  // Truncated inside the per-shard count list.
  corrupt["sharded.manifest"] = ManifestBytes(2, {live0_, live1_});
  corrupt["sharded.manifest"].resize(4 + 8 + 8 + 3);
  ExpectParseError(corrupt, "manifest cut mid per-shard counts");
}

TEST_F(ShardedManifestCorruptionTest, ShardCountSectionMismatchRejected) {
  // Manifest claims three shards; only two sections exist.
  auto corrupt = sections_;
  corrupt["sharded.manifest"] = ManifestBytes(3, {live0_, live1_, 0});
  ExpectParseError(corrupt, "manifest count > sections");
  // Manifest claims one shard; a second section exists.
  corrupt = sections_;
  corrupt["sharded.manifest"] = ManifestBytes(1, {live0_});
  ExpectParseError(corrupt, "manifest count < sections");
  // A shard section vanished entirely.
  corrupt = sections_;
  corrupt.erase("sharded.shard1");
  ExpectParseError(corrupt, "missing shard section");
  // Zero and absurd shard counts.
  corrupt = sections_;
  corrupt["sharded.manifest"] = ManifestBytes(0, {});
  ExpectParseError(corrupt, "zero shards");
  corrupt["sharded.manifest"] = ManifestBytes(1u << 20, {});
  ExpectParseError(corrupt, "absurd shard count");
}

TEST_F(ShardedManifestCorruptionTest, ManifestLiveCountMismatchRejected) {
  auto corrupt = sections_;
  // Per-shard counts that disagree with the section contents.
  corrupt["sharded.manifest"] = ManifestBytes(2, {live0_ + 1, live1_});
  ExpectParseError(corrupt, "manifest live count != section live count");
}

TEST_F(ShardedManifestCorruptionTest, HostileLiveCountNeverReachesReserve) {
  // An adversarial count consistent between the manifest and the shard
  // section's own prefix must come back as ParseError — not a
  // length_error/bad_alloc crash out of vector::reserve.
  const uint64_t hostile = uint64_t{1} << 60;
  auto corrupt = sections_;
  corrupt["sharded.manifest"] = ManifestBytes(2, {hostile, live1_});
  BinaryWriter shard0;
  shard0.WriteU64(hostile);  // section agrees with the manifest
  corrupt["sharded.shard0"] = std::move(shard0).TakeBuffer();
  ExpectParseError(corrupt, "hostile live count");
}

TEST_F(ShardedManifestCorruptionTest, DuplicateTableIdAcrossShardsRejected) {
  // Shard 1's section replaced with a copy of shard 0's: every table id
  // in shard 0 is now live in two shards.
  auto corrupt = sections_;
  corrupt["sharded.shard1"] = corrupt["sharded.shard0"];
  corrupt["sharded.manifest"] = ManifestBytes(2, {live0_, live0_});
  ExpectParseError(corrupt, "duplicate table id across shards");
}

TEST_F(ShardedManifestCorruptionTest, TruncatedShardSectionRejectedCleanly) {
  auto corrupt = sections_;
  auto& bytes = corrupt["sharded.shard0"];
  bytes.resize(bytes.size() / 2);
  auto snapshot = Reassemble(corrupt);
  ASSERT_TRUE(snapshot.ok());
  auto loaded = ShardedTabBinService::FromSnapshot(snapshot.value());
  // Any clean Status is acceptable (the cut can land mid-primitive);
  // the hard requirement is no crash and no partial service.
  EXPECT_FALSE(loaded.ok());
}

// ---------------------------------------------------------------------------
// Writer-starvation regression
// ---------------------------------------------------------------------------

// PR 3's stress test documented that a single reader-preferring rwlock
// starves the writer once readers keep it held at a 100% duty cycle.
// With per-shard locks, readers addressing tables on *other* shards
// still take a brief shared lock on the writer's shard during the
// scatter stage (every query probes every shard), but the hold is one
// bucket probe + a tiny rank — a sliver of each query — instead of the
// full query duration. The writer's lock therefore sees short, diluted
// reader holds with gaps, not the continuous overlap that reader
// preference turns into starvation. This test pins that property:
// writer updates complete within a generous wall-clock bound (absorbing
// sanitizer and single-core CI slowdowns) under 100%-duty foreign-shard
// read traffic — a regression to any global, full-query-duration read
// lock overshoots it by orders of magnitude (PR 3's starvation was
// unbounded).
TEST(ShardedServiceStressTest, WriterCompletesWhileReadersHammerOtherShards) {
  constexpr int kShards = 8;
  constexpr int kWriterOps = 6;
  constexpr int kReaders = 3;
  const auto& tables = SharedCorpus().corpus.tables;
  ShardedTabBinService svc(SharedSystem(), kShards);
  ASSERT_TRUE(svc.AddTables(tables).ok());

  // Writer ids that all hash to one shard; readers address only tables
  // owned by the other shards (their queries still scatter a brief
  // probe across every shard — see the suite comment).
  const size_t writer_shard = ShardIndexFor("w-0", kShards);
  std::vector<std::string> writer_ids;
  for (int j = 0; static_cast<int>(writer_ids.size()) < kWriterOps / 2;
       ++j) {
    const std::string id = "w-" + std::to_string(j);
    if (ShardIndexFor(id, kShards) == writer_shard) writer_ids.push_back(id);
  }
  std::vector<const Table*> reader_tables;
  for (const Table& t : tables) {
    if (ShardIndexFor(t.id(), kShards) != writer_shard) {
      reader_tables.push_back(&t);
    }
  }
  ASSERT_FALSE(reader_tables.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<long> responses{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      // 100% duty cycle: no sleeps between queries — exactly the load
      // shape that starved the single-lock writer in PR 3.
      size_t i = static_cast<size_t>(r) % reader_tables.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const Table& t = *reader_tables[i];
        i = (i + 1) % reader_tables.size();
        auto resp = svc.SimilarColumns({t.id(), nullptr, t.vmd_cols(), 6});
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        ++responses;
        const auto& matches = resp.value().matches;
        for (size_t m = 1; m < matches.size(); ++m) {
          if (matches[m].score > matches[m - 1].score) ++failures;
        }
      }
    });
  }

  // The writer streams adds and removes against its own shard.
  const auto start = std::chrono::steady_clock::now();
  int ops = 0;
  for (const std::string& id : writer_ids) {
    Table t = tables[0];
    t.set_id(id);
    t.set_caption("writer table " + id);
    ASSERT_TRUE(svc.AddTables({t}).ok());
    ++ops;
    ASSERT_TRUE(svc.RemoveTable(id).ok());
    ++ops;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_GE(ops, kWriterOps);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0);
  EXPECT_EQ(svc.NumLiveTables(), tables.size());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60)
      << "writer starved: per-shard locks must keep foreign-read traffic "
         "off the writer's critical path";
}

// A multi-shard AddTables holds every touched shard's writer lock while
// the graphs build on ThreadPool::Global(). Readers fan their shard
// probes out onto the same pool, and those jobs block on the held
// locks. With enough readers, every pool worker sits in such a job. Had
// the writer queued its graph jobs behind them and blocked on their
// futures, nothing could ever run them: the writer waits on the
// workers, the workers on the writer's locks. The writer instead helps
// run its own jobs and waits only for jobs a running worker claimed, so
// every batch completes. A watchdog turns a hang into a failure.
TEST(ShardedServiceStressTest, AddTablesFinishesWhileReaderFanOutsFillPool) {
  constexpr int kShards = 8;
  constexpr int kBatches = 6;
  const auto& tables = SharedCorpus().corpus.tables;
  ShardedTabBinService svc(SharedSystem(), kShards, ExactHnswOptions());
  ASSERT_TRUE(svc.AddTables(tables).ok());

  // Several readers per worker, so blocked fan-out jobs keep the pool's
  // queue ahead of the writer's graph jobs.
  const size_t readers_n = 4 * ThreadPool::Global().num_threads() + 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(readers_n);
  for (size_t r = 0; r < readers_n; ++r) {
    readers.emplace_back([&, r] {
      size_t i = r % tables.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const Table& t = tables[i];
        i = (i + 1) % tables.size();
        if (!svc.SimilarColumns({t.id(), nullptr, t.vmd_cols(), 5}).ok()) {
          ++failures;
        }
      }
    });
  }

  std::promise<void> writer_done;
  std::future<void> done = writer_done.get_future();
  std::atomic<int> write_failures{0};
  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Table> batch(tables.begin(), tables.end());
      for (Table& t : batch) {
        t.set_caption("batch " + std::to_string(b) + " " + t.caption());
      }
      if (!svc.AddTables(batch).ok()) ++write_failures;
    }
    writer_done.set_value();
  });
  if (done.wait_for(std::chrono::minutes(5)) != std::future_status::ready) {
    std::fprintf(stderr,
                 "AddTables did not finish: graph jobs are stuck behind "
                 "pool workers blocked on the writer's shard locks\n");
    std::abort();
  }
  writer.join();
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(write_failures.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(svc.NumLiveTables(), tables.size());
}

}  // namespace
}  // namespace tabbin

// Tests for metrics, LSH blocking, and the clustering harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "tasks/clustering.h"
#include "tasks/lsh.h"
#include "tasks/metrics.h"
#include "tasks/pipelines.h"
#include "test_tables.h"

namespace tabbin {
namespace {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, PerfectRankingApIsOne) {
  std::vector<bool> rel = {true, true, true};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 3), 1.0);
}

TEST(MetricsTest, ApKnownValue) {
  // Relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2 = 5/6.
  std::vector<bool> rel = {true, false, true};
  EXPECT_NEAR(AveragePrecisionAtK(rel, 3), 5.0 / 6.0, 1e-12);
}

TEST(MetricsTest, ApZeroWhenNothingRelevant) {
  std::vector<bool> rel = {false, false};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2), 0.0);
}

TEST(MetricsTest, ApRespectsCutoff) {
  // Relevant only beyond k: contributes nothing.
  std::vector<bool> rel = {false, false, true};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2), 0.0);
}

TEST(MetricsTest, ApWithTotalRelevantNormalization) {
  // One hit at rank 1, but two relevant items exist in the universe.
  std::vector<bool> rel = {true, false};
  EXPECT_DOUBLE_EQ(AveragePrecisionAtK(rel, 2, /*total_relevant=*/2), 0.5);
}

TEST(MetricsTest, MapWithPerQueryTotalsNormalizesByPopulation) {
  // Run 1: hits at ranks 1 and 3, but 3 relevant items exist.
  //   AP = (1/1 + 2/3) / min(3, 4) = (5/3) / 3 = 5/9.
  // Run 2: hit at rank 2 of 2 relevant items.
  //   AP = (1/2) / min(2, 4) = 1/4.
  std::vector<std::vector<bool>> runs = {{true, false, true, false},
                                         {false, true}};
  std::vector<int> totals = {3, 2};
  EXPECT_NEAR(MeanAveragePrecision(runs, 4, totals),
              (5.0 / 9.0 + 1.0 / 4.0) / 2, 1e-12);
}

TEST(MetricsTest, MapWithoutTotalsStillNormalizesByHits) {
  // The legacy overload (callers that genuinely cannot know the
  // population) divides by hits: {true, false, true} -> (1 + 2/3)/2.
  std::vector<std::vector<bool>> runs = {{true, false, true}};
  EXPECT_NEAR(MeanAveragePrecision(runs, 3), 5.0 / 6.0, 1e-12);
}

TEST(ClusteringTest, MapPenalizesRelevantItemsOutsideTopK) {
  // Query A1 has two cluster mates (A2, A3) but only A2 makes the top-2:
  // the old hits-based normalization scored AP = 1.0; the population-
  // bounded AP is (1/1) / min(2, 2) = 0.5.
  LabeledEmbeddingSet items;
  items.Add(std::vector<float>{1.0f, 0.0f}, "A");     // query
  items.Add(std::vector<float>{0.99f, 0.14f}, "A");   // cos ~ 0.990
  items.Add(std::vector<float>{0.9f, 0.43f}, "B");    // cos ~ 0.902
  items.Add(std::vector<float>{0.0f, 1.0f}, "A");     // cos = 0
  ClusterEvalOptions opts;
  opts.k = 2;
  opts.use_lsh = false;
  opts.query_indices = {0};
  ClusterEvalResult result = EvaluateClustering(items, opts);
  ASSERT_EQ(result.queries, 1);
  EXPECT_NEAR(result.map, 0.5, 1e-12);
  EXPECT_NEAR(result.mrr, 1.0, 1e-12);
}

TEST(MetricsTest, MrrFirstHitPosition) {
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({false, true, false}, 3), 0.5);
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({true}, 1), 1.0);
  EXPECT_DOUBLE_EQ(ReciprocalRankAtK({false, false}, 2), 0.0);
}

TEST(MetricsTest, MeanOverRuns) {
  std::vector<std::vector<bool>> runs = {{true}, {false, true}};
  EXPECT_DOUBLE_EQ(MeanReciprocalRank(runs, 2), (1.0 + 0.5) / 2);
}

TEST(MetricsTest, F1KnownValues) {
  BinaryScore s = ComputeF1(8, 2, 2);
  EXPECT_DOUBLE_EQ(s.precision, 0.8);
  EXPECT_DOUBLE_EQ(s.recall, 0.8);
  EXPECT_NEAR(s.f1, 0.8, 1e-12);
  BinaryScore zero = ComputeF1(0, 0, 0);
  EXPECT_DOUBLE_EQ(zero.f1, 0.0);
}

// ---------------------------------------------------------------------------
// LSH
// ---------------------------------------------------------------------------

std::vector<float> RandomUnit(Rng* rng, int dim) {
  std::vector<float> v(static_cast<size_t>(dim));
  double norm = 0;
  for (auto& x : v) {
    x = static_cast<float>(rng->Gaussian());
    norm += static_cast<double>(x) * x;
  }
  norm = std::sqrt(norm);
  for (auto& x : v) x = static_cast<float>(x / norm);
  return v;
}

TEST(LshTest, FindsNearDuplicates) {
  Rng rng(3);
  const int dim = 16;
  LshIndex index(dim, 6, 10);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 50; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  // A tiny perturbation of vector 7 must collide with id 7.
  std::vector<float> probe = vecs[7];
  for (auto& x : probe) x += 0.01f * static_cast<float>(rng.Gaussian());
  auto candidates = index.Query(probe);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7),
            candidates.end());
}

TEST(LshTest, RejectsMismatchedVectorSizes) {
  // Regression: Insert/Query used to silently accept vectors whose size
  // differs from dim_ — a shorter vector hashed against truncated
  // hyperplane dot products and poisoned the buckets it landed in.
  LshIndex index(/*dim=*/8, 4, 2);
  std::vector<float> ok(8, 1.0f);
  std::vector<float> shorter(5, 1.0f);
  std::vector<float> longer(11, 1.0f);

  ASSERT_TRUE(index.Insert(0, ok).ok());
  Status st = index.Insert(1, shorter);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("does not match index dim"), std::string::npos);
  EXPECT_EQ(index.Insert(2, longer).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 1);  // rejected inserts left no trace

  // Mis-sized probes match nothing; a correctly sized probe still works.
  EXPECT_TRUE(index.Query(shorter).empty());
  EXPECT_TRUE(index.Query(longer).empty());
  EXPECT_EQ(index.Query(ok), std::vector<int>{0});
}

TEST(LshTest, CandidateSetSmallerThanCorpusForRandomVectors) {
  Rng rng(4);
  const int dim = 32;
  LshIndex index(dim, 10, 4);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(index.Insert(i, RandomUnit(&rng, dim)).ok());
  }
  auto candidates = index.Query(RandomUnit(&rng, dim));
  EXPECT_LT(candidates.size(), 400u);
}

TEST(LshTest, QueryReturnsSortedUniqueCandidates) {
  // Regression: Query used to return unordered_set iteration order, which
  // varies across standard libraries and made blocking (and therefore
  // clustering output) platform-dependent.
  Rng rng(5);
  const int dim = 16;
  LshIndex index(dim, 4, 8);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 200; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  for (int probe = 0; probe < 20; ++probe) {
    auto candidates = index.Query(vecs[static_cast<size_t>(probe)]);
    ASSERT_FALSE(candidates.empty());
    for (size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LT(candidates[i - 1], candidates[i]);  // strictly ascending
    }
    // Stable across repeated queries.
    EXPECT_EQ(candidates, index.Query(vecs[static_cast<size_t>(probe)]));
  }
}

TEST(LshTest, QueryByKeysMatchesPerTableLookupMerge) {
  // Regression for the bulk bucket merge: QueryByKeys now gathers every
  // per-table bucket first and merges with one reserve + sort + unique
  // pass. The result must be identical to the reference per-table
  // lookup loop at any collision rate — few bits forces heavy bucket
  // collisions, so the duplicate-merging path is actually exercised.
  Rng rng(6);
  const int dim = 16;
  LshIndex index(dim, /*num_bits=*/2, /*num_tables=*/8);
  std::vector<std::vector<float>> vecs;
  for (int i = 0; i < 300; ++i) {
    vecs.push_back(RandomUnit(&rng, dim));
    ASSERT_TRUE(index.Insert(i, vecs.back()).ok());
  }
  for (int probe = 0; probe < 25; ++probe) {
    const auto keys = index.QueryKeys(vecs[static_cast<size_t>(probe)]);
    const auto got = index.QueryByKeys(keys);
    // Independent oracle for the old path's answer: id i collides with
    // the probe iff they share a bucket key in at least one table
    // (hashing is deterministic, so re-hashing every vector recovers
    // exactly the bucket each insert landed in), sorted and unique.
    std::vector<int> expected;
    for (int i = 0; i < static_cast<int>(vecs.size()); ++i) {
      const auto other = index.QueryKeys(vecs[static_cast<size_t>(i)]);
      for (size_t t = 0; t < keys.size(); ++t) {
        if (other[t] == keys[t]) {
          expected.push_back(i);
          break;
        }
      }
    }
    EXPECT_EQ(got, expected) << "probe " << probe;
    // High collision rate: the merged set must still be sorted, unique,
    // and contain the probe itself.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
    EXPECT_NE(std::find(got.begin(), got.end(), probe), got.end());
  }
}

// The reference merge MergeBucketIds replaced: concatenate, sort, unique.
std::vector<int> SortUniqueMerge(
    const std::vector<const std::vector<int>*>& buckets) {
  std::vector<int> out;
  for (const std::vector<int>* b : buckets) {
    out.insert(out.end(), b->begin(), b->end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(LshTest, BitmapBucketMergeMatchesSortUnique) {
  // Random buckets in the shapes QueryByKeys meets (dense overlapping
  // ids, the bitmap path) and the shapes that must fall back (sparse
  // spans, negative ids), plus empty inputs. Every one must equal the
  // sort + unique reference exactly.
  Rng rng(14);
  struct Shape {
    const char* name;
    int64_t lo, span;
    int buckets, max_len;
  };
  const Shape shapes[] = {
      {"dense", 0, 500, 12, 400},
      {"dense-offset", 1000000, 3000, 12, 600},
      {"one-id", 7, 1, 3, 5},
      {"sparse", 0, 2000000000, 12, 50},
      {"negative", -300, 600, 12, 100},
      {"int-extremes", std::numeric_limits<int>::min(),
       int64_t{std::numeric_limits<int>::max()} -
           std::numeric_limits<int>::min() + 1,
       4, 20},
  };
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::vector<int>> storage(
          static_cast<size_t>(shape.buckets));
      for (auto& bucket : storage) {
        const uint64_t len =
            rng.Uniform(static_cast<uint64_t>(shape.max_len));
        for (uint64_t i = 0; i < len; ++i) {
          const uint64_t off = rng.Uniform(static_cast<uint64_t>(shape.span));
          bucket.push_back(
              static_cast<int>(shape.lo + static_cast<int64_t>(off)));
        }
      }
      if (std::string(shape.name) == "int-extremes") {
        storage[0].push_back(std::numeric_limits<int>::min());
        storage[1].push_back(std::numeric_limits<int>::max());
      }
      std::vector<const std::vector<int>*> buckets;
      for (const auto& b : storage) buckets.push_back(&b);
      EXPECT_EQ(MergeBucketIds(buckets), SortUniqueMerge(buckets))
          << shape.name << " trial " << trial;
    }
  }
  EXPECT_TRUE(MergeBucketIds({}).empty());
  const std::vector<int> empty;
  EXPECT_TRUE(MergeBucketIds({&empty, &empty}).empty());
}

// ---------------------------------------------------------------------------
// Clustering harness
// ---------------------------------------------------------------------------

// Builds well-separated labeled clusters in embedding space.
LabeledEmbeddingSet MakeSeparatedClusters(int per_cluster, int clusters,
                                          int dim, double noise,
                                          uint64_t seed) {
  Rng rng(seed);
  EmbeddingMatrix centers;
  for (int c = 0; c < clusters; ++c) centers.AppendRow(RandomUnit(&rng, dim));
  LabeledEmbeddingSet out;
  for (int c = 0; c < clusters; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      std::vector<float> v = centers.row(static_cast<size_t>(c)).ToVector();
      for (auto& x : v) x += static_cast<float>(noise * rng.Gaussian());
      out.Add(v, "cluster-" + std::to_string(c));
    }
  }
  return out;
}

TEST(ClusteringTest, SeparatedClustersScoreHigh) {
  auto items = MakeSeparatedClusters(10, 4, 16, 0.05, 11);
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_GT(result.map, 0.95);
  EXPECT_GT(result.mrr, 0.95);
  EXPECT_GT(result.queries, 0);
}

TEST(ClusteringTest, RandomEmbeddingsScoreLow) {
  Rng rng(12);
  LabeledEmbeddingSet items;
  for (int i = 0; i < 60; ++i) {
    items.Add(RandomUnit(&rng, 16), "cluster-" + std::to_string(i % 6));
  }
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_LT(result.map, 0.6);
}

TEST(ClusteringTest, LshBlockingPreservesQualityOnSeparatedData) {
  auto items = MakeSeparatedClusters(12, 4, 24, 0.05, 13);
  ClusterEvalOptions with_lsh;
  with_lsh.use_lsh = true;
  ClusterEvalOptions without;
  without.use_lsh = false;
  auto a = EvaluateClustering(items, with_lsh);
  auto b = EvaluateClustering(items, without);
  EXPECT_NEAR(a.map, b.map, 0.1);
}

TEST(ClusteringTest, CentroidVariantScoresSeparatedClusters) {
  auto items = MakeSeparatedClusters(10, 3, 16, 0.05, 14);
  ClusterEvalOptions opts;
  auto result = EvaluateCentroidClustering(items, opts);
  EXPECT_GT(result.map, 0.9);
  EXPECT_EQ(result.queries, 3);
}

TEST(ClusteringTest, RankBySimilarityOrdersByCosine) {
  LabeledEmbeddingSet items = {
      {{1, 0}, "a"}, {{0.9f, 0.1f}, "a"}, {{0, 1}, "b"}};
  auto ranked = RankBySimilarity(items, 0);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].index, 1);
  EXPECT_EQ(ranked[1].index, 2);
}

TEST(ClusteringTest, SingletonLabelsSkipped) {
  LabeledEmbeddingSet items = {
      {{1, 0}, "only"}, {{0, 1}, "pair"}, {{0.1f, 1}, "pair"}};
  ClusterEvalOptions opts;
  opts.use_lsh = false;
  auto result = EvaluateClustering(items, opts);
  EXPECT_EQ(result.queries, 2);  // the singleton is not a query
}

// ---------------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------------

TEST(PipelinesTest, NumericColumnPredicate) {
  Table t = MakeRelationalTable();
  EXPECT_FALSE(IsNumericColumn(t, 0));  // names
  EXPECT_TRUE(IsNumericColumn(t, 1));   // ages
  EXPECT_FALSE(IsNumericColumn(t, 2));  // jobs
}

TEST(PipelinesTest, NumericTablePredicate) {
  EXPECT_FALSE(IsNumericTable(MakeRelationalTable()));
  EXPECT_TRUE(IsNumericTable(MakeOncologyTable()));
}

TEST(PipelinesTest, EmbeddersReceiveRightCells) {
  Corpus corpus;
  corpus.tables.push_back(MakeRelationalTable());
  std::vector<ColumnQuery> queries = {{0, 1, "age"}};
  auto items = EmbedColumns(corpus, queries, [](const Table& t, int col) {
    return std::vector<float>{static_cast<float>(col),
                              static_cast<float>(t.rows())};
  });
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items.label(0), "age");
  EXPECT_FLOAT_EQ(items.vec(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(items.vec(0)[1], 4.0f);
}

}  // namespace
}  // namespace tabbin

// Hierarchical navigable-small-world (HNSW-style) graph index over the
// rows of a flat EmbeddingMatrix — the sub-linear candidate generator
// behind `Similar*` endpoints at production corpus sizes.
//
// LSH blocking (tasks/lsh.h) is the default candidate stage; its recall
// is bucket-bounded, and at millions of columns the pool either misses
// neighbors or degenerates toward a linear scan. The graph walk here
// visits O(ef * M * log n) nodes instead, with ef_search as a smooth
// recall/QPS knob (bench/perf_report sweeps the frontier).
//
// Design constraints, in order:
//   * The index stores ONLY adjacency. Vector data stays in the
//     caller's EmbeddingMatrix (passed into Insert/Search), so one
//     graph serves owned, mapped, and mapped+delta matrices alike and
//     the rows are never duplicated.
//   * Every distance is a batched cosine through
//     EmbeddingMatrix::CosineRows — i.e. kernels::BatchedCosineRows
//     under the hood, the same bits as the exact scoring path. A
//     neighbor expansion scores all unvisited neighbors in one kernel
//     call. (tabbin_lint rule `index-distance-bypass` pins this: no
//     hand-rolled per-float loops in src/index/.)
//   * Determinism: level assignment is a hash of (seed, id) — no RNG
//     state, so an index rebuilt from the same rows in the same order
//     is identical across platforms. All orderings tie-break by
//     (distance, id), and Search returns candidates in ascending id
//     order, mirroring LshIndex::Query so downstream accept/rerank
//     code is shared unchanged.
//   * Tombstone-aware: MarkDead(id) excludes a node from results while
//     keeping it routable (removing waypoints would sever the graph).
//     The serving layer rebuilds the graph at Compact, which drops
//     dead nodes for real.
//
// Layout: level 0 is a dense flat uint32 block, (1 + 2M) slots per
// node ([count, n0, n1, ...]) — mappable as one aligned snapshot
// section and borrowable zero-copy (copy-on-write on the first
// post-load mutation). Levels >= 1 are sparse (a ~1/M fraction of
// nodes per level) and live in a small heap map, serialized into the
// checksummed metadata section.
#ifndef TABBIN_INDEX_HNSW_INDEX_H_
#define TABBIN_INDEX_HNSW_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/embedding_matrix.h"
#include "util/serialize.h"
#include "util/status.h"

namespace tabbin {

/// \brief Build/search knobs. M is the upper-level degree bound (level
/// 0 keeps 2M); ef_construction bounds the insert-time beam.
struct HnswOptions {
  int m = 16;
  int ef_construction = 100;
  uint64_t seed = 1234;
};

/// \brief Per-call search telemetry (visited = neighbor-list
/// expansions, scored = distance evaluations).
struct HnswSearchStats {
  size_t visited = 0;
  size_t scored = 0;
};

class HnswIndex {
 public:
  HnswIndex() = default;
  HnswIndex(int dim, HnswOptions options);

  // Adjacency moves between shards and Result<> wrappers; the atomic
  // telemetry counters are not movable by default, so spell the moves
  // out (counters transfer as plain loads — no concurrent movers by
  // contract: moves happen under the owning shard's writer lock).
  HnswIndex(HnswIndex&& other) noexcept;
  HnswIndex& operator=(HnswIndex&& other) noexcept;
  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  int dim() const { return dim_; }
  const HnswOptions& options() const { return opts_; }
  /// \brief Nodes ever inserted (dead ones included until a rebuild).
  size_t size() const { return nodes_; }
  size_t dead_count() const { return dead_count_; }
  int max_level() const { return max_level_; }
  int entry_point() const { return entry_; }
  /// \brief Total directed edges across all levels (inspect surface).
  size_t edge_count() const;
  /// \brief Bytes of the dense level-0 adjacency block.
  size_t level0_bytes() const { return nodes_ * stride_ * sizeof(uint32_t); }
  /// \brief True when level 0 is still borrowed from a mapped snapshot.
  bool is_external() const { return base_links_ != nullptr; }

  /// \brief Copies a borrowed level-0 block into owned storage and
  /// releases the keepalive, so the backing mapping can be unmapped
  /// (Compact's mapped path). No-op when already owned.
  void MaterializeOwned() { EnsureOwnedLinks(); }

  /// \brief Inserts row `id` of `vecs` into the graph. Ids must be the
  /// matrix's dense row indices appended in order (`id == size()`);
  /// anything else is InvalidArgument — the level-0 block is indexed
  /// by row id, so gaps would alias adjacency across rows.
  Status Insert(const EmbeddingMatrix& vecs, int id);

  /// \brief Makes room for `nodes` nodes in the level-0 block and the
  /// tombstone flags, first copying a borrowed block into owned storage.
  /// Capacity grows at least geometrically, so reserving batch after
  /// batch stays amortized. A caller that runs Insert on other threads
  /// reserves first, so these long-lived buffers are allocated on its
  /// own thread (and in its malloc arena) rather than on a worker's.
  void Reserve(size_t nodes);

  /// \brief Marks a node tombstoned: excluded from Search results,
  /// still traversed as a routing waypoint. Idempotent.
  void MarkDead(int id);
  bool IsDead(int id) const {
    return id >= 0 && static_cast<size_t>(id) < nodes_ &&
           dead_[static_cast<size_t>(id)] != 0;
  }

  /// \brief Up to `ef` live nearest candidates to `query`, ascending id
  /// order (LshIndex::Query convention — callers rerank with exact
  /// cosine either way). Empty on a dimensionality mismatch or an
  /// empty graph. `ef` is clamped to at least 1.
  std::vector<int> Search(const EmbeddingMatrix& vecs, VecView query, int ef,
                          HnswSearchStats* stats = nullptr) const;

  /// \brief Cumulative telemetry across Search calls (relaxed atomics;
  /// the LshIndex counterpart reports pool sizes, this reports walk
  /// cost, and bench prints them side by side).
  struct QueryStats {
    uint64_t queries = 0;
    uint64_t visited = 0;
    uint64_t scored = 0;
  };
  QueryStats query_stats() const;
  void ResetQueryStats() const;

  /// \brief Per-level node counts, [0] = level 0 (== size()).
  std::vector<size_t> LevelHistogram() const;

  // --- Persistence -------------------------------------------------------
  // Two-part format matching the paged store's metadata/bulk split:
  // SerializeMeta -> geometry, entry point, dead bitmap, sparse upper
  // levels (checksummed section); AppendLevel0Bytes -> the raw dense
  // level-0 block (page-aligned section, borrowed zero-copy on load).

  void SerializeMeta(BinaryWriter* w) const;
  void AppendLevel0Bytes(BinaryWriter* w) const;

  /// \brief Rebuilds an index from SerializeMeta bytes plus the raw
  /// level-0 block, which is BORROWED in place (`keepalive` pins the
  /// backing mapping; pass a null keepalive to force a copy). Every
  /// count and neighbor id is validated against the node count —
  /// hostile bytes are ParseError, never UB.
  static Result<HnswIndex> Restore(BinaryReader* meta, const uint8_t* l0,
                                   size_t l0_bytes,
                                   std::shared_ptr<const void> keepalive);

 private:
  // (distance, id): lexicographic order doubles as the deterministic
  // tie-break everywhere a heap or sort touches candidates.
  struct Cand {
    float dist;
    uint32_t id;
    bool operator<(const Cand& o) const {
      return dist < o.dist || (dist == o.dist && id < o.id);
    }
    bool operator>(const Cand& o) const { return o < *this; }
  };

  // Level-0 adjacency row for `id`: [count, neighbors...]. Reads go
  // through the borrowed base block for ids below base_nodes_.
  const uint32_t* LinkRow(size_t id) const {
    return id < base_nodes_ ? base_links_ + id * stride_
                            : links0_.data() + (id - base_nodes_) * stride_;
  }
  uint32_t* MutableLinkRow(size_t id);
  // Copies the borrowed base block into the owned delta (then
  // base_nodes_ == 0). Called before any level-0 mutation.
  void EnsureOwnedLinks();

  // Deterministic level for a node id (hash of seed + id -> geometric).
  int NodeLevel(uint32_t id) const;

  // Per-call scratch: an epoch-stamped visited array, so the descent
  // through log(n) levels costs one allocation per call instead of one
  // clear per level.
  struct Scratch;

  // Best-first beam search on one level. Fills `out` with up to `ef`
  // nearest nodes (dead ones excluded from results when `only_live`,
  // though they are still traversed), sorted by (dist, id).
  void SearchLayer(const EmbeddingMatrix& vecs, const float* q, float inv_q,
                   int level, int ef, bool only_live,
                   const std::vector<Cand>& entries, std::vector<Cand>* out,
                   Scratch* scratch, HnswSearchStats* stats) const;

  // Neighbors of `id` on `level` (level >= 1) from the sparse maps.
  const std::vector<uint32_t>* UpperLinks(uint32_t id, int level) const;
  std::vector<uint32_t>* MutableUpperLinks(uint32_t id, int level);

  // Heuristic neighbor selection (keep a candidate only if it is
  // closer to the query than to every already-kept neighbor), bounded
  // by `m`. `sorted` must be in (dist, id) order.
  std::vector<Cand> SelectNeighbors(const EmbeddingMatrix& vecs,
                                    const std::vector<Cand>& sorted,
                                    size_t m) const;

  // Re-selects `id`'s level-`level` neighbor list after a backlink
  // pushed it past its degree bound.
  void ShrinkLinks(const EmbeddingMatrix& vecs, uint32_t id, int level,
                   std::vector<uint32_t>* links, uint32_t extra);

  int dim_ = 0;
  HnswOptions opts_;
  uint32_t m0_ = 0;     // level-0 degree bound (2 * m)
  size_t stride_ = 0;   // uint32 slots per level-0 row (1 + m0_)
  double inv_log_m_ = 0.0;

  size_t nodes_ = 0;
  int entry_ = -1;
  int max_level_ = -1;

  // Level 0: borrowed base block (mapped snapshot) + owned delta, the
  // same split EmbeddingMatrix uses. base_nodes_ rows come from
  // base_links_; rows above live in links0_.
  const uint32_t* base_links_ = nullptr;
  size_t base_nodes_ = 0;
  std::shared_ptr<const void> keepalive_;
  std::vector<uint32_t> links0_;

  // Sparse upper levels: id -> per-level neighbor lists ([0] = level
  // 1). Only nodes with NodeLevel(id) >= 1 have an entry.
  std::unordered_map<uint32_t, std::vector<std::vector<uint32_t>>> upper_;

  std::vector<uint8_t> dead_;  // byte-per-node tombstone flags
  size_t dead_count_ = 0;

  // Telemetry: mutable so const Search can count under a shared lock.
  mutable std::atomic<uint64_t> stat_queries_{0};
  mutable std::atomic<uint64_t> stat_visited_{0};
  mutable std::atomic<uint64_t> stat_scored_{0};
};

}  // namespace tabbin

#endif  // TABBIN_INDEX_HNSW_INDEX_H_

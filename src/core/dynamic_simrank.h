// DynamicSimRank — the library's main entry point. It owns a mutually
// consistent triple (graph G, transition matrix Q, similarity matrix S)
// and keeps S exact under edge insertions/deletions using the paper's
// incremental algorithms: Inc-SR (pruned, the default) or Inc-uSR
// (unpruned, Algorithm 1). Batch updates are decomposed into unit updates,
// exactly as Section V prescribes.
//
// Typical use:
//   auto index = DynamicSimRank::Create(graph, {.damping = 0.6,
//                                               .iterations = 15});
//   index->InsertEdge(i, j);               // O(K(nd + |AFF|))
//   double s = index->Score(a, b);
//   auto top = index->TopKPairs(30);
#ifndef INCSR_CORE_DYNAMIC_SIMRANK_H_
#define INCSR_CORE_DYNAMIC_SIMRANK_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/affected_area.h"
#include "core/inc_sr.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "la/dense_matrix.h"
#include "la/score_store.h"
#include "la/sparse_matrix.h"
#include "simrank/options.h"

namespace incsr::core {

/// Which incremental algorithm maintains S.
enum class UpdateAlgorithm {
  /// Algorithm 2: rank-one Sylvester + affected-area pruning (default).
  kIncSR,
  /// Algorithm 1: rank-one Sylvester, dense O(K·n²) per update.
  kIncUSR,
};

/// A scored node pair.
struct ScoredPair {
  graph::NodeId a;
  graph::NodeId b;
  double score;

  bool operator==(const ScoredPair&) const = default;
};

/// THE top-k total order, used by every ranked surface in the repo
/// (TopKPairsOf, TopKForOf, and the sharded cross-shard merges):
/// descending score, ties broken by ascending (a, b). True iff x ranks
/// before y. One definition on purpose — the sharded serving layer's
/// bitwise shard-count invariance depends on all sites agreeing.
inline bool ScoredPairRanksBefore(const ScoredPair& x, const ScoredPair& y) {
  if (x.score != y.score) return x.score > y.score;
  return std::pair(x.a, x.b) < std::pair(y.a, y.b);
}

namespace detail {

/// Offers the pairs (row, b), first <= b < n and b != skip, of a SPARSE
/// row of a la::ScoreStore or View to `heap`, a min-heap of at most k
/// pairs under ScoredPairRanksBefore (worst pair at the front), reading
/// the row through ForEachStored: its stored entries go through the heap,
/// then the columns it does not store (+0.0) are offered in ascending id
/// until the first one that does not enter — every later one ties it on
/// score and loses on id, and the heap's worst pair only improves.
/// O(nnz log k + k log k), and the heap ends bitwise as a scan of the
/// same columns leaves it: both keep the same prefix of one strict total
/// order over the same values.
template <typename SLike>
void OfferSparseRow(const SLike& s, std::size_t row, std::size_t first,
                    std::size_t skip, std::size_t k,
                    std::vector<ScoredPair>& heap) {
  const auto a = static_cast<graph::NodeId>(row);
  // A stateless comparator and a local `offer` let the heap operations
  // inline; an out-of-line offer function measured 16 % slower per sparse
  // row at k = 16.
  const auto cmp = [](const ScoredPair& x, const ScoredPair& y) {
    return ScoredPairRanksBefore(x, y);
  };
  // Offers column b; true when it entered the heap.
  const auto offer = [&](std::size_t b, double score) {
    const ScoredPair cand{a, static_cast<graph::NodeId>(b), score};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), cmp);
      return true;
    }
    if (heap.empty() || !cmp(cand, heap.front())) return false;
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), cmp);
    return true;
  };
  s.ForEachStored(row, [&](std::size_t b, double v) {
    if (b >= first && b != skip) offer(b, v);
  });
  // A +0.0 candidate can still enter only while the heap has room or
  // its worst pair does not score above zero.
  if (!(heap.size() < k || (k > 0 && !(heap.front().score > 0.0)))) return;
  std::size_t next = first;  // lowest column not yet offered or stored
  bool open = true;
  const auto offer_zeros_below = [&](std::size_t end) {
    for (; open && next < end; ++next) {
      if (next != skip && !offer(next, 0.0)) open = false;
    }
  };
  s.ForEachStored(row, [&](std::size_t b, double) {
    if (b < first) return;
    offer_zeros_below(b);
    next = b + 1;
  });
  offer_zeros_below(s.rows());
}

}  // namespace detail

/// Top-k highest-scoring distinct pairs (a < b) of a similarity matrix.
/// Ordering CONTRACT (load-bearing, do not change): descending score,
/// ties broken by ascending (a, b). The sharded serving layer's k-way
/// cross-shard merge (src/shard/) relies on this total order being the
/// same within a shard (in local ids) and globally — shard-local ids are
/// assigned in ascending global order precisely so the tie-break
/// translates — which is what makes top-k results invariant to the shard
/// count. Bounded min-heap, O(k) extra space. Generic over any
/// row-readable score container (la::DenseMatrix, la::ScoreStore, or a
/// pinned la::ScoreStore::View) so the serving layer can run it on
/// published snapshots without materializing S. A dense row is scanned
/// past the diagonal: O(n log k). A sparse row a offers its columns
/// b > a through detail::OfferSparseRow, O(nnz log k + k log k), and the
/// result is bitwise the dense scan's.
template <typename SLike>
std::vector<ScoredPair> TopKPairsOf(const SLike& s, std::size_t k) {
  const std::size_t n = s.rows();
  std::vector<ScoredPair> heap;  // min-heap on score
  // Stateless, so the heap operations inline it (see TopKForOf).
  const auto cmp = [](const ScoredPair& x, const ScoredPair& y) {
    return ScoredPairRanksBefore(x, y);
  };
  la::Vector scratch;
  for (std::size_t a = 0; a < n; ++a) {
    if constexpr (requires { s.RowIsSparse(a); }) {
      if (s.RowIsSparse(a)) {
        detail::OfferSparseRow(s, a, a + 1, a, k, heap);
        continue;
      }
    }
    // The dense scan stays inline, as in TopKForOf.
    const double* row = s.ReadRow(a, &scratch);
    for (std::size_t b = a + 1; b < n; ++b) {
      ScoredPair cand{static_cast<graph::NodeId>(a),
                      static_cast<graph::NodeId>(b), row[b]};
      if (heap.size() < k) {
        heap.push_back(cand);
        std::push_heap(heap.begin(), heap.end(), cmp);
      } else if (!heap.empty() && cmp(cand, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = cand;
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  // sort_heap yields ascending order w.r.t. cmp, i.e. best pair first.
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

/// Top-k most similar nodes to `query` (excluding itself) read off row
/// `query` of `s`. Same ordering contract as TopKPairsOf: descending
/// score, ties broken by ascending node id — required for
/// shard-count-invariant results. Bounded min-heap over the k best seen
/// so far. A dense row is scanned whole: O(n log k). A sparse row of a
/// la::ScoreStore or View offers its columns through
/// detail::OfferSparseRow, O(nnz log k + k log k), and the result is
/// bitwise the dense scan's.
template <typename SLike>
std::vector<ScoredPair> TopKForOf(const SLike& s, graph::NodeId query,
                                  std::size_t k) {
  const std::size_t n = s.rows();
  const std::size_t q = static_cast<std::size_t>(query);
  // Every candidate shares the same `a` (= query), so the shared order
  // reduces to ascending b ties. The comparator is stateless so the heap
  // operations inline it; a function pointer cost 1.7× per dense row.
  const auto cmp = [](const ScoredPair& x, const ScoredPair& y) {
    return ScoredPairRanksBefore(x, y);
  };
  std::vector<ScoredPair> heap;
  heap.reserve(std::min(k, n));
  if constexpr (requires { s.RowIsSparse(q); }) {
    if (s.RowIsSparse(q)) {
      detail::OfferSparseRow(s, q, 0, q, k, heap);
      std::sort_heap(heap.begin(), heap.end(), cmp);
      return heap;
    }
  }
  // The dense scan stays inline: routing it through an offer call measured
  // about 6 % slower per row at n = 2048.
  la::Vector scratch;
  const double* row = s.ReadRow(q, &scratch);
  for (std::size_t b = 0; b < n; ++b) {
    if (b == q) continue;
    ScoredPair cand{query, static_cast<graph::NodeId>(b), row[b]};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (!heap.empty() && cmp(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

/// Incrementally maintained all-pairs SimRank index (matrix form, Eq. 2).
class DynamicSimRank {
 public:
  /// Builds the index: computes the initial S with the matrix-form batch
  /// algorithm (simrank::BatchMatrix: row-parallel on options.num_threads
  /// threads, bitwise the same S at any count) run to `batch_iterations`
  /// (default: enough iterations for the fixed point to be exact to
  /// ~1e-12, as the incremental theorems assume), then stands ready for
  /// updates.
  static Result<DynamicSimRank> Create(
      graph::DynamicDiGraph graph, const simrank::SimRankOptions& options = {},
      UpdateAlgorithm algorithm = UpdateAlgorithm::kIncSR,
      int batch_iterations = 0);

  /// Wraps an externally computed state; s must be the matrix-form
  /// similarity matrix of `graph`.
  static Result<DynamicSimRank> FromState(
      graph::DynamicDiGraph graph, la::DenseMatrix s,
      const simrank::SimRankOptions& options = {},
      UpdateAlgorithm algorithm = UpdateAlgorithm::kIncSR);

  /// Stands up an index over `num_nodes` isolated nodes WITHOUT ever
  /// materializing a dense n² matrix: for an edgeless graph Q = 0, so the
  /// matrix-form fixed point S = C·Q·S·Qᵀ + (1−C)·I is exactly (1−C)·I,
  /// which the score store builds sparse-direct in O(n). This is the entry
  /// point for an n the dense store cannot hold — grow structure with
  /// InsertEdge afterwards (written rows merge in place and spill to dense
  /// only past the store's max_density).
  static Result<DynamicSimRank> CreateIsolated(
      std::size_t num_nodes, const simrank::SimRankOptions& options = {},
      UpdateAlgorithm algorithm = UpdateAlgorithm::kIncSR);

  const graph::DynamicDiGraph& graph() const { return graph_; }
  /// Publishes the current adjacency as an immutable byte-stable View in
  /// ⌈n/256⌉ pointer copies; later edge updates copy-on-write only the
  /// nodes they touch (graph::DynamicDiGraph::Snapshot). Same single-writer
  /// rule as mutable_score_store(): the caller must be the update thread.
  graph::DynamicDiGraph::View SnapshotGraph() { return graph_.Snapshot(); }
  /// The maintained similarity matrix, behind the copy-on-write row store.
  /// Read entries with scores()(a, b) / scores().ReadRow(a, &scratch);
  /// materialize with scores().ToDense() when a dense matrix is genuinely
  /// needed.
  const la::ScoreStore& scores() const { return s_; }
  /// Mutable access to the score store for the serving layer, which calls
  /// Publish() on it to snapshot an epoch in ⌈n/256⌉ pointer copies. The
  /// caller must be the same thread that applies updates.
  la::ScoreStore* mutable_score_store() { return &s_; }
  const simrank::SimRankOptions& options() const { return options_; }
  UpdateAlgorithm algorithm() const { return algorithm_; }

  /// SimRank score of a node pair.
  double Score(graph::NodeId a, graph::NodeId b) const;

  /// Inserts edge (src → dst) and incrementally updates all scores.
  Status InsertEdge(graph::NodeId src, graph::NodeId dst);
  /// Deletes edge (src → dst) and incrementally updates all scores.
  Status DeleteEdge(graph::NodeId src, graph::NodeId dst);
  /// Applies a unit update.
  Status ApplyUpdate(const graph::EdgeUpdate& update);
  /// Applies a batch of updates as a sequence of unit updates. Stops at
  /// the first failure (already-applied prefix stays applied).
  Status ApplyBatch(const std::vector<graph::EdgeUpdate>& updates);

  /// Applies a batch with one generalized rank-one solve per DISTINCT
  /// target node (see core/coalesced_update.h) — exact like ApplyBatch,
  /// but |ΔG|/T-times cheaper when updates cluster on few targets.
  /// Only available in Inc-SR mode.
  Status ApplyBatchCoalesced(const std::vector<graph::EdgeUpdate>& updates);

  /// Extension beyond the paper: adds an isolated node. Its exact
  /// matrix-form similarities are s(v, v) = 1 − C and 0 elsewhere, so the
  /// index grows without recomputation — and without densifying: sparse
  /// rows of S stay sparse (la::ScoreStore::GrowByIsolatedNode).
  graph::NodeId AddNode();

  /// Top-k highest-scoring distinct pairs (a < b), ties broken by (a, b).
  std::vector<ScoredPair> TopKPairs(std::size_t k) const;
  /// Top-k most similar nodes to `query` (excluding itself).
  std::vector<ScoredPair> TopKFor(graph::NodeId query, std::size_t k) const;

  /// Affected-area statistics of the last Inc-SR update (empty for
  /// Inc-uSR, which does not prune).
  const AffectedAreaStats& last_update_stats() const {
    return engine_.last_stats();
  }

  /// Merged affected-area statistics of the last ApplyBatch /
  /// ApplyBatchCoalesced call (one Merge per unit update / coalesced
  /// group). Empty for Inc-uSR.
  const AffectedAreaStats& last_batch_stats() const { return batch_stats_; }

  // ---- Touched-row delta surface (serving layer) -------------------------
  // Ground truth of which rows of S changed since the score store's last
  // Publish(): the rows the update kernels actually wrote (their COW
  // clones), not the analytic affected-area superset ∪ₖ (Aₖ ∪ Bₖ). Exact
  // for EVERY algorithm — Inc-SR, coalesced batches, and Inc-uSR's dense
  // scatter (all rows) alike — and duplicate-free, so the serving layer
  // re-ranks its per-node top-k index and invalidates its query cache from
  // exactly this set per epoch.

  /// True when every row must be assumed changed (fresh index, AddNode's
  /// store growth) — callers should rebuild rather than patch.
  bool AllScoreRowsTouched() const { return s_.all_rows_touched(); }
  /// Rows written since the last score-store publish; meaningless while
  /// AllScoreRowsTouched() is set.
  std::span<const std::int32_t> TouchedScoreRows() const {
    return s_.touched_rows();
  }

 private:
  DynamicSimRank(graph::DynamicDiGraph graph, la::ScoreStore s,
                 const simrank::SimRankOptions& options,
                 UpdateAlgorithm algorithm);

  graph::DynamicDiGraph graph_;
  la::DynamicRowMatrix q_;
  la::ScoreStore s_;
  simrank::SimRankOptions options_;
  UpdateAlgorithm algorithm_;
  IncSrEngine engine_;
  AffectedAreaStats batch_stats_;
};

}  // namespace incsr::core

#endif  // INCSR_CORE_DYNAMIC_SIMRANK_H_

// Inc-SR — Algorithm 2 of the paper: Inc-uSR plus the Theorem 4 pruning.
// The auxiliary vectors ξ_k, η_k are propagated SPARSELY: their supports
// are exactly the affected sets A_k, B_k (out-neighbor expansions in the
// new graph of the previous supports, Eq. 40), so each iteration costs
// O(d·(|A_k| + |B_k|)) for the propagation plus O(|A_k|·|B_k|) for the
// scatter of ξ_k·η_kᵀ (+ its transpose) into S — never O(n²). Node-pairs
// outside ∪_k A_k×B_k are untouched, which is the paper's lossless
// pruning: their ΔS entries are a-priori zero.
//
// The seed θ is likewise computed on its support only (Algorithm 2 line 3:
// B₀ = F₁ ∪ F₂ ∪ {j} of Eqs. 38-39), using the OLD graph's out-neighbors
// of the nodes similar to i. It reads rows i and j of S through their
// stored entries (la::ScoreRows::ForEachStored), so it costs
// O(nnz([S]_{·,i}) + nnz([S]_{·,j}) + d·|B₀|) on sparse rows — O(n + d·|B₀|)
// on dense ones — instead of O(m).
#ifndef INCSR_CORE_INC_SR_H_
#define INCSR_CORE_INC_SR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/scheduler.h"
#include "core/affected_area.h"
#include "core/rank_one_update.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "la/row_writer.h"
#include "la/score_store.h"
#include "la/sparse_matrix.h"
#include "simrank/options.h"

namespace incsr::core {

/// Reusable pruned-update engine. One engine per maintained similarity
/// matrix; its scratch buffers are recycled across updates so steady-state
/// unit updates allocate nothing of O(n).
///
/// S is a la::ScoreStore, read through its stored entries
/// (la::ScoreRows::ForEachStored) and written only through
/// per-row la::RowWriter sessions, opened just for the rows the engine
/// scatters into (so a publish pays COW for O(affected rows) only). A
/// session spans the whole update: it opens at the row's first scatter
/// and commits once after the last of the K+1 scatters, so a sparse row
/// is index-merged once per update, not once per iteration.
/// The hot loops — seed scan, support expansion, outer-product scatter —
/// run on the shared Scheduler with options.num_threads-way parallelism.
/// S is bitwise identical at every thread count: rows are scattered
/// disjointly (each row's write sequence is the serial one), and the
/// expansion kernels accumulate into per-chunk workspaces whose chunk
/// geometry depends only on the data shape, merged in chunk order.
class IncSrEngine {
 public:
  explicit IncSrEngine(simrank::SimRankOptions options)
      : options_(options),
        threads_(Scheduler::ResolveNumThreads(options.num_threads)) {}

  const simrank::SimRankOptions& options() const { return options_; }

  /// Applies one unit update. On entry *graph, *q, *s must be mutually
  /// consistent OLD state; on success they hold the NEW state. On failure
  /// nothing is modified.
  Status ApplyUpdate(const graph::EdgeUpdate& update,
                     graph::DynamicDiGraph* graph, la::DynamicRowMatrix* q,
                     la::ScoreStore* s);

  /// Generalized (coalesced) rank-one update: absorbs EVERY change in
  /// `changes` — all of which must target node `target` — with a single
  /// rank-one Sylvester solve, using u = e_target and v = Δ(row). The
  /// Theorem 2 seed is computed from the general formulas (z = S·v,
  /// γ = vᵀz, w = Q·z + (γ/2)u) instead of the per-case Eqs. (27)-(28).
  /// All changes are validated against the old state before anything is
  /// mutated; on failure nothing is modified.
  Status ApplyRowUpdate(graph::NodeId target,
                        std::span<const graph::EdgeUpdate> changes,
                        graph::DynamicDiGraph* graph, la::DynamicRowMatrix* q,
                        la::ScoreStore* s);

  /// Affected-area measurements of the most recent successful update.
  const AffectedAreaStats& last_stats() const { return stats_; }

 private:
  // Sparse workspace vector: sorted index list + dense value backing.
  struct Workspace {
    la::Vector values;                  // dense accumulator (n entries)
    std::vector<std::int32_t> indices;  // touched indices
    std::vector<std::uint8_t> seen;     // membership flags

    void EnsureSize(std::size_t n);
    void Clear();  // resets touched entries only — O(nnz)
    void Accumulate(std::int32_t index, double delta);
    /// values += coeff·row over all n entries of a dense row, marking
    /// every index touched. Same bits as accumulating only the entries
    /// that are not +0.0: a +0.0 term leaves a sum started at +0.0
    /// unchanged. Vectorizes where the per-entry path cannot.
    void AddDenseRow(double coeff, const double* row, std::size_t n);
    /// Accumulates every entry of `other` (chunk subtotals, in `other`'s
    /// first-touch order) into this workspace.
    void MergeFrom(const Workspace& other);
    void SortIndices();
  };

  // Chunked-expansion body: fills `ws` from source positions [lo, hi).
  using ExpandFn =
      std::function<void(Workspace* ws, std::size_t lo, std::size_t hi)>;

  // Runs `expand` over a deterministic chunking of [0, count) — geometry
  // a function of (count, grain) only, NEVER of threads_ — with one
  // accumulator workspace (of dimension n) per chunk, then merges the
  // chunk subtotals into `out` in chunk order. This fixes the FP merge
  // tree, so the result is bitwise identical at any thread count. With a
  // single chunk, expands straight into `out` (same tree: merging one
  // subtotal into a fresh entry is the subtotal itself).
  void RunChunkedExpansion(std::size_t count, std::size_t n,
                           std::size_t grain, const ExpandFn& expand,
                           Workspace* out);

  // θ on its support B₀, computed from the OLD graph/Q/S.
  Status ComputeSparseSeed(const graph::EdgeUpdate& update,
                           const graph::DynamicDiGraph& graph,
                           const la::DynamicRowMatrix& q,
                           const la::ScoreStore& s,
                           RankOneUpdate* rank_one, Workspace* theta);

  // next ← scale · Q̃ · cur, where Q̃ is read off the NEW graph
  // (Q̃_{a,b} = 1/indeg(a) for b ∈ I(a)). Supports expand by out-neighbor
  // sets — exactly Eq. (40).
  void AdvanceSparse(const graph::DynamicDiGraph& new_graph, double scale,
                     const Workspace& cur, Workspace* next);

  // S += ξ·ηᵀ + η·ξᵀ restricted to the touched supports, row-parallel
  // over supp(ξ) ∪ supp(η). A row's write session opens (serially:
  // BeginWriteRow is writer-thread-only) at its first scatter of the
  // update and stays open for the rest of it; sessions are filled in
  // parallel (disjoint rows ⇒ disjoint writers). Each row's write
  // sequence equals the serial kernel's, so the result is bitwise
  // identical to serial whatever backing each row has.
  void ScatterOuter(const Workspace& xi, const Workspace& eta,
                    la::ScoreStore* s);

  // Commits every session ScatterOuter opened during this update, once
  // each, in first-touch order, and closes them.
  void CommitOpenSessions(la::ScoreStore* s);

  // Gathers the nonzero entries of row `row` of S (ascending; a stored
  // −0.0 is skipped like an absent +0.0) into expand_sources_/weights_.
  void GatherNonzeros(const la::ScoreStore& s, std::size_t row);

  // out ← Q·x, where x is the gathered (expand_sources_, expand_weights_)
  // and Q is read off `graph`: each source y adds x_y to its out-neighbors
  // a, then a's in-sum is divided by |I(a)|. `out` must be cleared.
  void MultiplyQGathered(const graph::DynamicDiGraph& graph, std::size_t n,
                         Workspace* out);

  // Shared tail of both update paths: seeds ξ₀ = C·e_target, η₀ = θ
  // (already in eta_), runs the K pruned iterations against the NEW
  // graph, scattering into S and recording stats.
  void RunPrunedIterations(graph::NodeId target,
                           const graph::DynamicDiGraph& new_graph,
                           la::ScoreStore* s);

  simrank::SimRankOptions options_;
  std::size_t threads_;  // resolved once from options/env/hardware
  AffectedAreaStats stats_;
  Workspace xi_;
  Workspace eta_;
  Workspace xi_next_;
  Workspace eta_next_;
  Workspace z_;  // ApplyRowUpdate's z = S·v
  std::vector<Workspace> chunk_ws_;  // per-chunk expansion accumulators
  // Gathered nonzero sources (and their values) of a Q·x expansion, so
  // expansion chunk geometry depends on the support size rather than the
  // ambient node count — this is what makes S bitwise invariant to the
  // ambient id space (a sharded component-local run matches the
  // full-graph run, see src/shard/).
  std::vector<std::int32_t> expand_sources_;
  std::vector<double> expand_weights_;
  std::vector<std::int32_t> scatter_rows_;  // supp(ξ) ∪ supp(η) scratch
  // One write session per row the update scatters into, in first-touch
  // order; the first open_sessions_ are open. row_slot_[r] is row r's
  // index into scatter_writers_, or −1 while r has no open session.
  std::vector<la::RowWriter> scatter_writers_;
  std::size_t open_sessions_ = 0;
  std::vector<std::int32_t> row_slot_;
};

}  // namespace incsr::core

#endif  // INCSR_CORE_INC_SR_H_

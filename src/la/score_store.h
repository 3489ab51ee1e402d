// ScoreStore — a per-row copy-on-write similarity matrix. The paper's
// central observation is that an edge update perturbs only a small affected
// area of S; the serving layer therefore should not pay O(n²) — or O(n) —
// to publish an epoch snapshot when a batch touched only a few rows.
// ScoreStore makes the touched-row structure explicit in storage:
//
//   - Every row lives in its own immutable, reference-counted block in a
//     paged copy-on-write table (common/cow_table.h). A block's payload is
//     pluggable (la::RowBlock): a dense row, or — when sparsity is
//     enabled — a threshold-sparsified index+value layout holding only
//     entries ≥ ε plus the row's protected top-k columns.
//   - Publish() copies the table's page ROOT only — ⌈n/256⌉ pointers; the
//     next write into a page clones it (256 pointers), so T touched rows
//     publish for O(T·256 + n/256) pointer copies plus the T row clones.
//   - BeginWriteRow(i)/CommitWriteRow() is the one write path: the store
//     opens a representation-aware RowWriter session per row. A
//     dense-backed row hands out its flat pointer (cloning the block first
//     unless the writer owns it — copy-on-write); a sparse-backed row
//     stays sparse: the kernel's (column, delta) stream accumulates in
//     the writer and commit index-merges it with the
//     immutable base block, spilling to dense only past the max_density
//     gate or on an explicit RowWriter::Dense() (counted as
//     rows_spilled_dense). The serving layer re-sparsifies the dense rows
//     a batch wrote at publish time (SparsifyRow), so a row's tier follows
//     only from its writes; a batch-touched sparse row never leaves its
//     tier, so publish pays no re-sparsify for it.
//   - ReadRow(i)/operator() is the one read path, representation-agnostic.
//
// Accuracy contract when sparsity is enabled (docs/score_store.md): every
// entry a sparsification drops has |v| < ε, exact +0.0 entries are always
// dropped losslessly, and stats().max_error_bound accumulates an upper
// bound on the resulting |served − exact| error. At ε = 0 the gathered
// bytes are bitwise identical to the dense original.
//
// Threading model (matches the serving layer): ONE writer thread calls the
// mutating methods (BeginWriteRow/CommitWriteRow, SparsifyRow, Publish,
// GrowByIsolatedNode); any number of reader threads read through
// Views they obtained via a synchronizing handoff (e.g. a shared_ptr swap
// under a mutex). Blocks are immutable once shared and freed by shared_ptr
// refcounting, so no reader ever races a write — the COW decision is the
// table's writer-private ownership rule, not shared_ptr::use_count(),
// keeping the store TSan-clean by design.
#ifndef INCSR_LA_SCORE_STORE_H_
#define INCSR_LA_SCORE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/cow_table.h"
#include "la/dense_matrix.h"
#include "la/row_block.h"
#include "la/row_writer.h"
#include "la/vector.h"

namespace incsr::la {

/// Cumulative copy-on-write accounting (written by the writer thread only;
/// read it from the writer thread or after a synchronizing handoff).
struct ScoreStoreStats {
  /// Rows cloned by copy-on-write since construction. This is the true
  /// incremental publish cost: rows copied so that published Views stay
  /// immutable while the writer mutates.
  std::uint64_t rows_copied = 0;
  /// Bytes of row payload cloned by copy-on-write.
  std::uint64_t bytes_copied = 0;
  /// Publish() calls.
  std::uint64_t publishes = 0;
  /// Rows (and bytes) materialized outside the write path — construction
  /// and GrowByIsolatedNode(), i.e. the full-rebuild cost as opposed to
  /// the incremental COW cost above. The shard layer reports its
  /// merge-rebuild bytes from this counter so the accounting follows
  /// what the store actually allocated, whatever the backing
  /// representation.
  std::uint64_t rows_materialized = 0;
  std::uint64_t bytes_materialized = 0;

  // ---- Tiered sparse backing ----------------------------------------------
  /// Cumulative dense→sparse demotions (SparsifyRow).
  std::uint64_t rows_sparsified = 0;
  /// Cumulative sparse→dense transitions, all on the write path: RowWriter
  /// Dense() spills and sparse commits past the max_density gate.
  std::uint64_t rows_spilled_dense = 0;
  /// Sparse-native write sessions that committed as an index-merge (the
  /// row stayed in its sparse tier through a batch write).
  std::uint64_t sparse_write_merges = 0;
  /// Entries dropped below ε across all sparsifications (lossy drops only;
  /// exact +0.0 drops are bitwise lossless and not counted). The write
  /// path never drops lossily — exactness loss is confined to SparsifyRow.
  std::uint64_t eps_drops = 0;
  /// High-water mark of resident dense payload bytes since the last
  /// Publish() — the transient dense footprint the current batch has
  /// materialized. Reset to the then-current dense payload at Publish().
  std::uint64_t epoch_peak_dense_bytes = 0;
  /// Gauges describing the CURRENT tier mix, not cumulative counts.
  std::uint64_t rows_sparse = 0;
  std::uint64_t sparse_payload_bytes = 0;
  /// Upper bound on |served − exact| accumulated by lossy drops: the sum
  /// over sparsification events of max_dropped_abs × error_amplification.
  /// Never decreases (a re-densified row keeps its embedded drops).
  double max_error_bound = 0.0;
};

/// Per-store sparsification policy. ε = 0 with enabled sparsity is a valid
/// pure-compression setting (bitwise-lossless +0.0 elision only).
struct SparsityConfig {
  /// Entries with |v| < epsilon may be dropped (never the protected
  /// keep_cols an index passes to SparsifyRow).
  double epsilon = 0.0;
  /// A row stays dense when its retained fraction exceeds this (an
  /// index+value pair costs 12 bytes against 8 dense, so compressing past
  /// ~0.6 density loses; 0.5 leaves headroom for later inserts).
  double max_density = 0.5;
  /// Multiplier folded into max_error_bound per drop event. The serving
  /// layer sets 1/(1−C) to first-order-account for error propagation
  /// through the C-contractive SimRank iteration.
  double error_amplification = 1.0;
};

/// The read surface ScoreStore and ScoreStore::View share, written once
/// over either the writer's row table or a published snapshot of it.
template <typename Table>
class ScoreRows {
 public:
  std::size_t rows() const { return table_.size(); }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows() == 0 || cols_ == 0; }

  double operator()(std::size_t i, std::size_t j) const {
    INCSR_DCHECK(i < rows() && j < cols_, "index (%zu,%zu) out of (%zu,%zu)",
                 i, j, rows(), cols_);
    return table_[i].At(j);
  }

  /// True when row i is backed by the sparse layout.
  bool RowIsSparse(std::size_t i) const {
    INCSR_DCHECK(i < rows(), "row %zu out of %zu", i, rows());
    return table_[i].is_sparse();
  }

  /// Contiguous read access to row i regardless of its representation: a
  /// dense row returns its payload pointer untouched; a sparse row is
  /// gathered into *scratch (resized to cols()) and that buffer is
  /// returned. The pointer is invalidated by the next ReadRow into the
  /// same scratch.
  const double* ReadRow(std::size_t i, Vector* scratch) const {
    INCSR_DCHECK(i < rows(), "row %zu out of %zu", i, rows());
    return ReadRowFromBlock(table_[i], cols_, scratch);
  }

  /// The stored-entry read: calls fn(col, value) for every entry of row i
  /// whose bit pattern is not +0.0, in ascending column order — the
  /// stored arrays of a sparse row (O(nnz)), a scan of a dense row (O(n)).
  /// Every column it does not visit reads +0.0, so a sum that starts at
  /// +0.0 and adds only the visited entries has the same bits as one over
  /// the gathered row, and a ranking can offer the unvisited columns as
  /// +0.0 candidates without reading them (docs/score_store.md).
  template <typename Fn>
  void ForEachStored(std::size_t i, Fn&& fn) const {
    INCSR_DCHECK(i < rows(), "row %zu out of %zu", i, rows());
    table_[i].ForEachStored(fn);
  }

  /// Materializes the matrix (bitwise-exact copy).
  DenseMatrix ToDense() const {
    DenseMatrix out(rows(), cols_);
    Vector scratch;
    for (std::size_t i = 0; i < rows(); ++i) {
      const double* src = ReadRow(i, &scratch);
      std::copy(src, src + cols_, out.RowPtr(i));
    }
    return out;
  }

 protected:
  Table table_;
  std::size_t cols_ = 0;
};

/// Per-row copy-on-write score matrix. See file comment.
class ScoreStore : public ScoreRows<CowTable<RowBlock>> {
 public:
  /// Immutable snapshot of the row table. Copying a View copies the page
  /// root (⌈n/256⌉ pointers); pinning an existing View via shared_ptr is
  /// O(1). Reads are valid and byte-stable for the View's lifetime.
  class View : public ScoreRows<CowTable<RowBlock>::Snapshot> {
    friend class ScoreStore;
  };

  ScoreStore() = default;
  /// Takes ownership of a dense matrix, one dense block per row.
  explicit ScoreStore(DenseMatrix dense);

  /// n×n matrix `value · I` built sparse-direct: one stored entry per row,
  /// O(n) total instead of the O(n²) dense slab. This is how an engine
  /// stands up an edgeless-graph state at an n the dense store cannot
  /// hold (written rows merge in place and spill to dense only past
  /// max_density).
  static ScoreStore ScaledIdentity(std::size_t n, double value);

  /// Opens a write session for row i on *w (see la::RowWriter) — the one
  /// write path. A dense row gets a dense-direct session onto its flat
  /// payload, cloned first unless the writer owns it (copy-on-write); a
  /// sparse row gets an accumulation session against the immutable base
  /// block, so nothing the store publishes changes until CommitWriteRow. Writer thread only; sessions on DISJOINT rows
  /// may be filled (Add/Dense) from parallel workers between Begin and
  /// Commit.
  void BeginWriteRow(std::size_t i, RowWriter* w);

  /// Closes a session opened by BeginWriteRow. Dense-direct sessions are a
  /// no-op (the writes already landed). A sparse session with no writes
  /// leaves the row untouched (no swap, no delta record); otherwise the
  /// merged block — sparse, or dense past the max_density gate / after a
  /// Dense() spill — is swapped in and the touched-row delta recorded.
  /// Writer thread only.
  void CommitWriteRow(RowWriter* w);

  // ---- Tiered sparse backing ----------------------------------------------

  /// Enables per-row sparsification under `config`.
  void set_sparsity(const SparsityConfig& config);
  bool sparsity_enabled() const { return sparsity_enabled_; }
  const SparsityConfig& sparsity() const { return sparsity_; }

  /// Demotes dense row i to the sparse layout, retaining entries ≥ ε plus
  /// all of `keep_cols` (the row's top-k index columns, any order).
  /// Returns false — leaving the row dense — when the row is already
  /// sparse or fails the max_density gate. On success `*dropped_out`
  /// (optional) receives the number of lossy drops; when it is zero the
  /// row's readable bytes are unchanged. Writer thread only; like a
  /// write session, a demotion of a published row records it in the
  /// touched-row delta so index/cache maintenance sees it.
  bool SparsifyRow(std::size_t i, std::span<const std::int32_t> keep_cols,
                   std::size_t* dropped_out = nullptr);

  /// Dense bytes the currently sparse rows would occupy minus their actual
  /// sparse payload — the memory the tiering is saving right now.
  std::uint64_t bytes_saved() const;
  /// Resident numeric payload across all rows under the current tier mix.
  std::uint64_t payload_bytes() const;

  // ---- Touched-row delta surface -----------------------------------------
  // Between two Publish() calls, the rows whose bytes may differ from the
  // previous View are exactly the rows written through a write session or
  // demoted by SparsifyRow; replacing a row the writer does not own
  // records it here. The serving layer reads this (before
  // calling Publish(), which resets it) to re-rank its per-node top-k
  // index and invalidate its query cache from the rows the batch ACTUALLY
  // wrote — exact for every update algorithm, unlike the analytic
  // affected-area statistics. Writer thread only.

  /// True when every row must be assumed touched: fresh construction or
  /// GrowByIsolatedNode(), where writes precede the first Publish() and
  /// are not individually tracked.
  bool all_rows_touched() const { return all_rows_touched_; }

  /// Row indices replaced since the last Publish(), duplicate-free (a row
  /// stops being writer-owned only at Publish(), so it enters at most once
  /// per epoch). Meaningless while all_rows_touched() is set.
  const std::vector<std::int32_t>& touched_rows() const {
    return touched_rows_;
  }

  /// Snapshots the current matrix as an immutable View: copies the page
  /// root and ends the writer's ownership of every row, so subsequent
  /// writes COW. O(⌈n/256⌉) — never the rows or their payload. Writer
  /// thread only.
  View Publish();

  /// Grows the n×n matrix to (n+1)×(n+1) for an isolated new node: the
  /// new column is +0.0 in every old row and the new row holds only
  /// `self_score` on its diagonal. Sparse rows keep their block (the new
  /// column is an implicit zero) and its ownership; dense rows are
  /// rebuilt one entry wider; the new row is single-entry sparse. Every
  /// row counts as touched, and previously published Views keep serving
  /// the old geometry and bytes. Writer thread only.
  void GrowByIsolatedNode(double self_score);

  const ScoreStoreStats& stats() const { return stats_; }

 private:
  // Installs `block` as row i. Replacing a row the writer does not own
  // records it in the touched delta; that happens at most once per row per
  // epoch, keeping the list duplicate-free without a lookup.
  void ReplaceRow(std::size_t i, std::shared_ptr<const RowBlock> block);
  // Resident dense payload bytes right now, and the watermark bump every
  // dense-increasing transition calls (epoch_peak_dense_bytes).
  std::uint64_t DensePayloadBytes() const;
  void BumpDensePeak();

  // Writer-private touched-row delta since the last Publish() (see the
  // delta-surface accessors above).
  bool all_rows_touched_ = false;
  std::vector<std::int32_t> touched_rows_;
  bool sparsity_enabled_ = false;
  SparsityConfig sparsity_;
  // CommitWriteRow merge scratch: a commit into a writer-private row
  // swaps these with the block's arrays, so sustained churn on the same
  // rows recycles the same two buffers instead of allocating per merge.
  TrackedIndices merge_scratch_cols_;
  TrackedDoubles merge_scratch_vals_;
  ScoreStoreStats stats_;
};

/// Largest |a - b| entry between a store or View and any row-readable
/// matrix (shape-checked; NaN when any entry pair holds a NaN — see
/// la::MaxAbsDiffRows).
template <typename Table, typename B>
double MaxAbsDiff(const ScoreRows<Table>& a, const B& b) {
  return MaxAbsDiffRows(a, b);
}
template <typename Table>
double MaxAbsDiff(const DenseMatrix& a, const ScoreRows<Table>& b) {
  return MaxAbsDiffRows(a, b);
}

}  // namespace incsr::la

#endif  // INCSR_LA_SCORE_STORE_H_

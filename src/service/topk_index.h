// TopKIndex — per-node bounded top-k candidate index for the serving
// layer's miss path. The paper bounds an update's effect on S to the
// affected area ∪ₖ Aₖ×Bₖ (plus its transpose), yet a TopKFor cache miss
// used to scan a whole row: O(n) per query, and under churn the
// affected-area cache invalidation makes misses the common case — exactly
// when the paper says the work should track |ΔS|. This index moves the
// O(n) scan off the query path and onto the applier, where it amortizes
// into work the applier already does per touched row:
//
//   - Per node q the index keeps the exact top-c candidates of row q
//     (c = capacity, min(c, n-1) entries), ordered by the repo-wide
//     contract: descending score, ties by ascending node id
//     (core::ScoredPairRanksBefore).
//   - Maintenance is incremental by the affected-area argument: a batch
//     can only change row q if the applier wrote it, so at publish time
//     ONLY the touched rows (la::ScoreStore's COW-clone record) are
//     re-ranked. Untouched entries stay valid because their rows' bytes
//     did not change. A complete entry (|entry| = n-1) already holds the
//     old score of every column, so it is patched by its changed columns:
//     the unchanged items keep their order and the re-scored ones are
//     sorted and merged in, O(n + |Δ| log |Δ|) against the scan's
//     O(n log c). An incomplete entry cannot see columns outside itself,
//     so it is re-ranked by one core::TopKForOf: O(nnz log c + c log c)
//     over a sparse row's stored entries, O(n log c) over a dense row.
//   - A miss with k <= |entry| (or a complete entry, |entry| = n-1) is
//     served as the entry's first min(k, |entry|) items — bitwise
//     identical to TopKForOf on the same snapshot, because both are
//     prefixes of the same strict total order. A miss with k past an
//     incomplete entry ("underfull") falls back to the full row scan; the
//     service counts both outcomes (ServiceStats::topk_index_*).
//
// Entries sit in a paged copy-on-write table like la::ScoreStore's rows
// (common/cow_table.h); Publish() copies its page root (⌈n/256⌉ pointers)
// into a View that rides inside the EpochSnapshot, so a reader always sees
// the index state matching its pinned scores. One writer (the applier)
// mutates; readers only touch Views obtained through the snapshot's
// synchronizing handoff — TSan-clean by design, like the store.
#ifndef INCSR_SERVICE_TOPK_INDEX_H_
#define INCSR_SERVICE_TOPK_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/cow_table.h"
#include "core/dynamic_simrank.h"
#include "graph/digraph.h"
#include "la/score_store.h"
#include "la/vector.h"

namespace incsr::service {

/// Per-node bounded top-k candidate index. See file comment.
class TopKIndex {
 public:
  /// One node's candidates: the exact top-|items| of its row under the
  /// (descending score, ascending id) contract, |items| = min(c, n-1).
  struct Entry {
    std::vector<core::ScoredPair> items;

    /// True when the entry holds every column of its n-node row but the
    /// diagonal (|items| = n-1), so no column outside it can rank in.
    bool Complete(std::size_t n) const { return items.size() + 1 >= n; }
  };

  /// Immutable snapshot of the entry table; copying shares the pages.
  /// Reads are valid and stable for the View's lifetime.
  class View {
   public:
    View() = default;

    /// Node count of the indexed matrix (0 for a disabled/empty view).
    std::size_t rows() const { return entries_.size(); }
    bool empty() const { return entries_.size() == 0; }

    /// Serves TopKFor(query, k) when the entry provably holds the whole
    /// answer: k <= |items|, or the entry is complete (|items| = n-1, so
    /// any k just returns everything). Returns false — caller falls back
    /// to a row scan — when the entry is underfull for this k or the view
    /// is empty (index disabled). On success *out is bitwise what
    /// core::TopKForOf(scores, query, k) returns on the same snapshot.
    bool Serve(graph::NodeId query, std::size_t k,
               std::vector<core::ScoredPair>* out) const;

    /// Serves TopKPairs(k) by a k-way merge over the per-node entries
    /// instead of the O(n²) pair scan. Each entry contributes its
    /// upper-triangle candidates (b > row) — the same storage bytes the
    /// pair scan reads, which matters because S need not be bitwise
    /// symmetric — already in the global contract order, so the merge
    /// emits exact global pairs, each from exactly one row. Soundness
    /// bound: a pair absent from its own row's entry scores at most the
    /// worst last-item score over incomplete entries, so pairs are
    /// emitted only while they strictly beat that bound. Returns false —
    /// caller falls back to the pair scan — when the bound cuts the
    /// merge off before k pairs (or the view is empty / an incomplete
    /// entry is empty). On success *out is bitwise what
    /// core::TopKPairsOf(scores, k) returns on the same snapshot.
    /// O(n + k log n) versus the scan's O(n² log k).
    bool ServePairs(std::size_t k, std::vector<core::ScoredPair>* out) const;

   private:
    friend class TopKIndex;
    CowTable<Entry>::Snapshot entries_;
  };

  /// `capacity` bounds candidates per node; 0 disables the index: Rebuild*
  /// are no-ops, Publish returns an empty view, every miss falls through
  /// to the row scan.
  explicit TopKIndex(std::size_t capacity) : capacity_(capacity) {}

  bool enabled() const { return capacity_ > 0; }
  /// Candidates kept per node: every entry is ranked to this depth.
  std::size_t capacity() const { return capacity_; }

  /// The candidates currently stored for `row` (empty when the index is
  /// disabled or the entry is not built yet). This is the protected keep
  /// set a sparsifying score store must retain (la::ScoreStore::
  /// SparsifyRow's keep_cols) so index-served top-k keeps reading exact
  /// stored values. Writer thread only.
  std::span<const core::ScoredPair> EntryItems(std::size_t row) const;

  /// Cumulative entries re-ranked by Rebuild* (the maintenance cost),
  /// patched or rescanned.
  std::uint64_t rows_reranked() const { return rows_reranked_; }
  /// The part of rows_reranked() that RebuildRows patched by changed
  /// columns instead of rescanning.
  std::uint64_t rows_patched() const { return rows_patched_; }

  /// Re-ranks the entries of `rows` from the current score rows. A
  /// complete entry is patched: the columns whose score bits changed since
  /// the entry was ranked are re-sorted and merged into the unchanged
  /// items, O(n + |Δ| log |Δ|). Any other entry (bounded capacity, not
  /// built yet) gets one core::TopKForOf (O(nnz log c + c log c) on a
  /// sparse row, O(n log c) on a dense one). Either way the entry is
  /// bitwise TopKForOf(scores, row, capacity()), provided every row whose
  /// bytes changed since its entry was ranked is in `rows`. Rows must be
  /// in range, in any order; duplicates are harmless. Writer thread only.
  void RebuildRows(const la::ScoreStore& scores,
                   std::span<const std::int32_t> rows);

  /// (Re)builds every entry — initial build and the all-rows-touched path
  /// (fresh store, geometry change). Adapts to scores.rows(). The rows are
  /// ranked in parallel on the shared scheduler (INCSR_THREADS, then the
  /// hardware count); each entry is the same TopKForOf either way. Writer
  /// thread only.
  void RebuildAll(const la::ScoreStore& scores);

  /// Snapshots the entry table for an epoch: copies the page root,
  /// O(⌈n/256⌉) pointers, no entries. Writer thread only.
  View Publish();

 private:
  std::shared_ptr<const Entry> BuildEntry(const la::ScoreStore& scores,
                                          std::size_t row) const;
  std::shared_ptr<const Entry> PatchEntry(const la::ScoreStore& scores,
                                          std::size_t row, const Entry& old);

  const std::size_t capacity_;
  std::uint64_t rows_reranked_ = 0;
  std::uint64_t rows_patched_ = 0;
  CowTable<Entry> entries_;
  // PatchEntry scratch, reused across rows.
  la::Vector row_scratch_;
  std::vector<core::ScoredPair> kept_;
  std::vector<core::ScoredPair> changed_;
};

}  // namespace incsr::service

#endif  // INCSR_SERVICE_TOPK_INDEX_H_

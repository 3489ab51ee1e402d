// RowBlock — the pluggable payload unit behind la::ScoreStore, one block
// per row. A block is a tagged struct (no virtual dispatch on the read hot
// path): either a dense row of `cols` doubles, or a threshold-sparsified
// row stored as sorted column ids with parallel values (index+value
// compressed layout).
//
// Sparsification contract (see docs/score_store.md):
//   - An entry v is RETAINED when its column is in `keep_cols` (the row's
//     top-k index columns, so index serving never degrades), or when
//     |v| >= epsilon and v is not an exact +0.0.
//   - An exact +0.0 is always dropped: gathering a sparse row fills absent
//     columns with +0.0, so dropping it is bitwise lossless. This is what
//     makes epsilon = 0 a pure compression setting — the gathered row is
//     bitwise identical to the dense original. A -0.0 is kept at
//     epsilon = 0 for the same reason.
//   - Every other dropped entry has |v| < epsilon; `dropped` counts them
//     and `max_dropped_abs` records the largest magnitude lost, which is
//     what the store folds into its cumulative error bound.
#ifndef INCSR_LA_ROW_BLOCK_H_
#define INCSR_LA_ROW_BLOCK_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "la/vector.h"

namespace incsr::la {

/// An exact +0.0 (not -0.0): the one value a gather reproduces bitwise, so
/// dropping it from a sparse layout is always lossless. Shared by the
/// sparsifier and the sparse-native write path (RowWriter merges).
inline bool IsPositiveZero(double v) { return v == 0.0 && !std::signbit(v); }

/// One immutable, reference-counted row block. Blocks are built unshared by
/// the single writer thread and become immutable once a Publish()ed table
/// references them.
struct RowBlock {
  enum class Kind : std::uint8_t { kDense, kSparse };

  Kind kind = Kind::kDense;
  /// kDense: the row's cols doubles.
  TrackedDoubles dense;
  /// kSparse: strictly increasing column ids with parallel values.
  TrackedIndices sparse_cols;
  TrackedDoubles sparse_vals;

  bool is_sparse() const { return kind == Kind::kSparse; }

  /// Bytes of numeric payload actually held (excludes struct overhead).
  std::size_t payload_bytes() const {
    return dense.size() * sizeof(double) +
           sparse_cols.size() * sizeof(std::int32_t) +
           sparse_vals.size() * sizeof(double);
  }

  /// Value at `col` of a sparse block (+0.0 when not stored). O(log nnz).
  double SparseAt(std::size_t col) const;

  /// Value at `col` whatever the representation.
  double At(std::size_t col) const {
    return is_sparse() ? SparseAt(col) : dense[col];
  }

  /// Expands a sparse block into `dst[0..num_cols)`: absent columns become
  /// exact +0.0, stored entries keep their bit patterns.
  void GatherInto(std::size_t num_cols, double* dst) const;

  /// Calls fn(col, value) for every entry whose bit pattern is not +0.0,
  /// in ascending column order: the stored arrays of a sparse block, a
  /// scan of a dense one. Every column not visited reads +0.0.
  template <typename Fn>
  void ForEachStored(Fn&& fn) const {
    if (is_sparse()) {
      for (std::size_t k = 0; k < sparse_cols.size(); ++k) {
        if (IsPositiveZero(sparse_vals[k])) continue;
        fn(static_cast<std::size_t>(sparse_cols[k]), sparse_vals[k]);
      }
      return;
    }
    for (std::size_t col = 0; col < dense.size(); ++col) {
      if (IsPositiveZero(dense[col])) continue;
      fn(col, dense[col]);
    }
  }
};

/// Contiguous read access to `block`'s row regardless of its
/// representation: a dense row returns its payload pointer untouched; a
/// sparse row is gathered into *scratch (resized to num_cols) and that
/// buffer is returned. This is the single scratch-gather implementation
/// behind both ScoreStore::ReadRow and ScoreStore::View::ReadRow.
inline const double* ReadRowFromBlock(const RowBlock& block,
                                      std::size_t num_cols, Vector* scratch) {
  if (!block.is_sparse()) return block.dense.data();
  scratch->Resize(num_cols);
  block.GatherInto(num_cols, scratch->data());
  return scratch->data();
}

/// Result of sparsifying one dense row.
struct SparsifyResult {
  /// The sparse block, or null when the row failed the density gate (its
  /// retained fraction exceeded max_density) and should stay dense.
  std::shared_ptr<const RowBlock> block;
  /// Dropped entries whose bit pattern was not exact +0.0 — i.e. drops a
  /// reader could observe. Zero means the gathered row is bitwise
  /// identical to the dense input.
  std::size_t dropped = 0;
  /// Largest |v| among those drops (each is < epsilon by construction).
  double max_dropped_abs = 0.0;
};

/// Sparsifies one dense row of `num_cols` entries under the retention
/// contract above. `keep_cols` (any order, duplicates fine) are retained
/// unconditionally. Bails out with a null block as soon as the retained
/// count exceeds max_density · num_cols.
SparsifyResult SparsifyDenseRow(const double* row, std::size_t num_cols,
                                double epsilon, double max_density,
                                std::span<const std::int32_t> keep_cols);

/// Single-row sparse block holding one entry: row[col] = value. This is
/// the O(1)-per-row construction path for (scaled) identity matrices —
/// the only way to stand up an n that a dense n² slab cannot hold.
std::shared_ptr<const RowBlock> MakeSingleEntryRow(std::size_t col,
                                                   double value);

}  // namespace incsr::la

#endif  // INCSR_LA_ROW_BLOCK_H_

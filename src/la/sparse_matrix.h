// Sparse matrix types. CsrMatrix is the immutable compressed-sparse-row
// snapshot used by the batch SimRank iterations (row-axpy SpMM kernels);
// DynamicRowMatrix is the mutable per-row representation that backs the
// backward transition matrix Q while edges churn — a unit edge update
// touches exactly one row (Theorem 1 of the paper), so row-granular
// mutation is O(d_j).
#ifndef INCSR_LA_SPARSE_MATRIX_H_
#define INCSR_LA_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "la/dense_matrix.h"
#include "la/vector.h"

namespace incsr::la {

/// A (column, value) sparse entry.
struct SparseEntry {
  std::int32_t col;
  double value;

  bool operator==(const SparseEntry&) const = default;
};

using TrackedEntries = std::vector<SparseEntry, TrackedAllocator<SparseEntry>>;

/// Immutable compressed-sparse-row matrix.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from (row, col, value) triplets; duplicates are summed.
  static CsrMatrix FromTriplets(
      std::size_t rows, std::size_t cols,
      std::vector<std::tuple<std::int32_t, std::int32_t, double>> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return entries_.size(); }

  /// Entries of row i, sorted by column.
  std::span<const SparseEntry> RowEntries(std::size_t i) const {
    INCSR_DCHECK(i < rows_, "row %zu out of %zu", i, rows_);
    return {entries_.data() + row_ptr_[i],
            entries_.data() + row_ptr_[i + 1]};
  }

  /// Value at (i, j); 0.0 when not stored. O(log nnz(row)).
  double At(std::size_t i, std::size_t j) const;

  /// y = A·x.
  Vector Multiply(const Vector& x) const;
  /// y = Aᵀ·x.
  Vector MultiplyTranspose(const Vector& x) const;

  /// C = A·B with B dense: row-axpy kernel, O(nnz · B.cols()).
  DenseMatrix MultiplyDense(const DenseMatrix& b) const;
  /// Rows [begin, end) of A·B written over the same rows of *out (shape
  /// rows() × B.cols()): each row is zeroed, then accumulated in CSR order.
  /// MultiplyDense runs it over every row; disjoint row ranges may run
  /// concurrently and give the same bits.
  void MultiplyDenseRows(const DenseMatrix& b, DenseMatrix* out,
                         std::size_t begin, std::size_t end) const;

  /// C = Aᵀ·B with B dense: scatter kernel, O(nnz · B.cols()).
  DenseMatrix MultiplyTransposeDense(const DenseMatrix& b) const;

  /// Densifies (small matrices / tests).
  DenseMatrix ToDense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int64_t, TrackedAllocator<std::int64_t>> row_ptr_;
  TrackedEntries entries_;
};

/// Mutable row-granular sparse matrix: each row is an independently
/// replaceable sorted array of (col, value) entries.
class DynamicRowMatrix {
 public:
  DynamicRowMatrix() = default;
  /// Empty matrix with the given shape.
  DynamicRowMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), row_data_(rows) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Total stored entries (sum over rows).
  std::size_t nnz() const;

  /// Entries of row i, sorted by column.
  std::span<const SparseEntry> RowEntries(std::size_t i) const {
    INCSR_DCHECK(i < rows_, "row %zu out of %zu", i, rows_);
    return {row_data_[i].data(), row_data_[i].size()};
  }

  /// Replaces row i. Entries must be sorted by column, columns unique and
  /// in range.
  void SetRow(std::size_t i, TrackedEntries entries);
  /// Removes all entries of row i.
  void ClearRow(std::size_t i);

  /// Appends empty rows and/or widens the column space. Never shrinks.
  void Grow(std::size_t rows, std::size_t cols);

  /// Value at (i, j); 0.0 when not stored. O(log nnz(row)).
  double At(std::size_t i, std::size_t j) const;

  /// y = A·x.
  Vector Multiply(const Vector& x) const;
  /// y = Aᵀ·x.
  Vector MultiplyTranspose(const Vector& x) const;
  /// Inner product of row i with a dense vector.
  double RowDot(std::size_t i, const Vector& x) const;
  /// Copies row i into a SparseVector of dimension cols().
  SparseVector RowAsSparseVector(std::size_t i) const;

  /// Immutable CSR snapshot of the current contents.
  CsrMatrix ToCsr() const;
  /// Densifies (small matrices / tests).
  DenseMatrix ToDense() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<TrackedEntries, TrackedAllocator<TrackedEntries>> row_data_;
};

}  // namespace incsr::la

#endif  // INCSR_LA_SPARSE_MATRIX_H_

// Row-major dense matrix with the operations the SimRank algorithms need:
// GEMM/GEMV, transpose, scaled addition, norms, and structural queries.
// Kernels are plain loops in i-k-j order so the compiler vectorizes the
// inner axpy; at the problem sizes of this library (n up to a few thousand)
// this stays within ~2-3x of a tuned BLAS, which is ample for reproducing
// the paper's relative performance shapes.
#ifndef INCSR_LA_DENSE_MATRIX_H_
#define INCSR_LA_DENSE_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <string>

#include "la/vector.h"

namespace incsr::la {

/// Dense row-major matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  /// Zero matrix with the given shape.
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// n x n identity.
  static DenseMatrix Identity(std::size_t n);
  /// Diagonal matrix from a vector.
  static DenseMatrix Diagonal(const Vector& diag);
  /// Builds from nested initializer lists (tests and examples). All rows
  /// must have equal length.
  static DenseMatrix FromRows(
      std::initializer_list<std::initializer_list<double>> rows);
  /// Outer product x · yᵀ.
  static DenseMatrix OuterProduct(const Vector& x, const Vector& y);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double operator()(std::size_t i, std::size_t j) const {
    INCSR_DCHECK(i < rows_ && j < cols_, "index (%zu,%zu) out of (%zu,%zu)", i,
                 j, rows_, cols_);
    return data_[i * cols_ + j];
  }
  double& operator()(std::size_t i, std::size_t j) {
    INCSR_DCHECK(i < rows_ && j < cols_, "index (%zu,%zu) out of (%zu,%zu)", i,
                 j, rows_, cols_);
    return data_[i * cols_ + j];
  }

  /// Raw pointer to row i (contiguous, cols() entries). Pointer
  /// arithmetic, not data_[..], so a zero-column matrix (empty payload)
  /// yields a valid empty row instead of indexing an empty vector.
  const double* RowPtr(std::size_t i) const {
    return data_.data() + i * cols_;
  }
  double* RowPtr(std::size_t i) { return data_.data() + i * cols_; }
  /// Representation-agnostic read entry point shared with la::ScoreStore
  /// (which gathers sparse rows into *scratch); every row of a plain dense
  /// matrix is contiguous, so the scratch is never used.
  const double* ReadRow(std::size_t i, Vector* /*scratch*/) const {
    return RowPtr(i);
  }

  /// Copies row i into a Vector.
  Vector Row(std::size_t i) const;
  /// Copies column j into a Vector.
  Vector Col(std::size_t j) const;
  /// Overwrites row i.
  void SetRow(std::size_t i, const Vector& row);
  /// Overwrites column j.
  void SetCol(std::size_t j, const Vector& col);

  /// Sets every entry to zero.
  void SetZero();

  /// this += alpha * other (same shape).
  void AddScaled(double alpha, const DenseMatrix& other);
  /// this *= alpha.
  void Scale(double alpha);
  /// this += alpha * I (square only).
  void AddScaledIdentity(double alpha);
  /// this += alpha * x · yᵀ (rank-one update). With num_threads > 1 the
  /// rows stream in parallel on the shared pool; rows are disjoint and
  /// each keeps the serial accumulation order, so the result is bitwise
  /// identical at any thread count.
  void AddOuterProduct(double alpha, const Vector& x, const Vector& y,
                       std::size_t num_threads = 1);

  /// Matrix-vector product A·x.
  Vector Multiply(const Vector& x) const;
  /// Transposed matrix-vector product Aᵀ·x.
  Vector MultiplyTranspose(const Vector& x) const;

  /// Returns Aᵀ.
  DenseMatrix Transpose() const;
  /// Rows [begin, end) of Aᵀ written over the same rows of *out (shape
  /// cols() × rows()). Transpose runs it over every row; disjoint row
  /// ranges may run concurrently.
  void TransposeRows(DenseMatrix* out, std::size_t begin,
                     std::size_t end) const;

  /// Largest absolute entry.
  double MaxAbs() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Number of entries with |value| > eps.
  std::size_t CountNonZero(double eps = 0.0) const;
  /// True if the matrix is square and symmetric to within eps.
  bool IsSymmetric(double eps = 0.0) const;

  /// Renders small matrices for debugging / golden tests.
  std::string ToString(int precision = 4) const;

  bool operator==(const DenseMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  TrackedDoubles data_;
};

/// C = A · B.
DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b);
/// C = A · Bᵀ.
DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b);
/// C = Aᵀ · B.
DenseMatrix MultiplyTransposeA(const DenseMatrix& a, const DenseMatrix& b);

/// Largest |a - b| entry over two equally shaped row-readable matrices
/// (anything with rows(), cols() and ReadRow: DenseMatrix, la::ScoreStore
/// and its View) — the one row loop behind every matrix MaxAbsDiff
/// overload. NaN when any entry pair holds a NaN (see MaxAbsDiffSpan).
template <typename A, typename B>
double MaxAbsDiffRows(const A& a, const B& b) {
  INCSR_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "MaxAbsDiff shape mismatch (%zu,%zu) vs (%zu,%zu)", a.rows(),
              a.cols(), b.rows(), b.cols());
  double max_diff = 0.0;
  Vector scratch_a;
  Vector scratch_b;
  for (std::size_t i = 0; i < a.rows() && !std::isnan(max_diff); ++i) {
    max_diff = MaxAbsDiffSpan(a.ReadRow(i, &scratch_a),
                              b.ReadRow(i, &scratch_b), a.cols(), max_diff);
  }
  return max_diff;
}

/// Largest |a - b| entry over two equally shaped matrices.
double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

/// True iff the matrices have the same shape and byte-identical payloads
/// (memcmp — distinguishes ±0.0 and compares NaNs by representation).
/// The determinism tests and benches use this to enforce the parallel
/// kernels' bitwise-reproducibility contract.
bool BitwiseEqual(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace incsr::la

#endif  // INCSR_LA_DENSE_MATRIX_H_

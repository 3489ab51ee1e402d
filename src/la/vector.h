// Dense and sparse vector types used by every numeric kernel in incsr.
// Storage goes through TrackedAllocator so the Fig. 3 memory experiment can
// measure intermediate working sets.
#ifndef INCSR_LA_VECTOR_H_
#define INCSR_LA_VECTOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/memory.h"

namespace incsr::la {

/// Storage alias for tracked double buffers.
using TrackedDoubles = std::vector<double, TrackedAllocator<double>>;
/// Storage alias for tracked index buffers.
using TrackedIndices = std::vector<std::int32_t, TrackedAllocator<std::int32_t>>;

/// Dense column vector of doubles.
class Vector {
 public:
  Vector() = default;
  /// Zero vector of dimension n.
  explicit Vector(std::size_t n) : data_(n, 0.0) {}
  /// Vector with all entries set to `value`.
  Vector(std::size_t n, double value) : data_(n, value) {}
  /// From an initializer list (tests and examples).
  Vector(std::initializer_list<double> init) : data_(init.begin(), init.end()) {}

  /// Unit basis vector e_i of dimension n.
  static Vector Basis(std::size_t n, std::size_t i);

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double operator[](std::size_t i) const {
    INCSR_DCHECK(i < data_.size(), "Vector index %zu out of range %zu", i,
                 data_.size());
    return data_[i];
  }
  double& operator[](std::size_t i) {
    INCSR_DCHECK(i < data_.size(), "Vector index %zu out of range %zu", i,
                 data_.size());
    return data_[i];
  }

  const double* data() const { return data_.data(); }
  double* data() { return data_.data(); }

  /// Resizes to n entries; new entries are zero.
  void Resize(std::size_t n) { data_.resize(n, 0.0); }
  /// Sets every entry to zero without changing the dimension.
  void SetZero();

  /// this += alpha * x. Dimensions must match.
  void Axpy(double alpha, const Vector& x);
  /// this *= alpha.
  void Scale(double alpha);

  /// Euclidean norm.
  double Norm2() const;
  /// Largest absolute entry (0 for the empty vector).
  double MaxAbs() const;
  /// Sum of entries.
  double Sum() const;
  /// Number of entries with |value| > eps.
  std::size_t CountNonZero(double eps = 0.0) const;

  bool operator==(const Vector& other) const { return data_ == other.data_; }

 private:
  TrackedDoubles data_;
};

/// Inner product xᵀ·y. Dimensions must match.
double Dot(const Vector& x, const Vector& y);

/// Largest |a[j] - b[j]| over n entries, folded into `running`: the one
/// inner loop behind every MaxAbsDiff overload. A pair holding a NaN
/// returns NaN at once, so a tolerance check written as
/// `MaxAbsDiff(..) <= tol` fails on it instead of skipping it.
double MaxAbsDiffSpan(const double* a, const double* b, std::size_t n,
                      double running);

/// Largest absolute difference between two equally sized vectors (NaN when
/// either holds a NaN).
double MaxAbsDiff(const Vector& x, const Vector& y);

/// Sparse vector: sorted unique indices with parallel values. Used by the
/// pruned Inc-SR iteration where ξ_k, η_k stay sparse while the affected
/// area is small.
class SparseVector {
 public:
  SparseVector() = default;
  /// Sparse vector of logical dimension n with no stored entries.
  explicit SparseVector(std::size_t n) : dim_(n) {}

  /// Dimension of the ambient space.
  std::size_t dim() const { return dim_; }
  /// Number of stored (structurally nonzero) entries.
  std::size_t nnz() const { return indices_.size(); }

  const TrackedIndices& indices() const { return indices_; }
  const TrackedDoubles& values() const { return values_; }

  /// Appends an entry. Indices must be appended in strictly increasing
  /// order; zero values may be stored (they keep structural information).
  void Append(std::int32_t index, double value);

  /// Removes all stored entries, keeping the dimension.
  void Clear();

  /// Returns the value at `index` (0.0 when not stored). O(log nnz).
  double At(std::int32_t index) const;

  /// Densifies into a full Vector.
  Vector ToDense() const;

  /// Builds from a dense vector keeping entries with |v| > eps.
  static SparseVector FromDense(const Vector& dense, double eps = 0.0);

  /// Inner product with a dense vector.
  double DotDense(const Vector& dense) const;

  /// y += alpha * this, into a dense vector of matching dimension.
  void AxpyInto(double alpha, Vector* y) const;

 private:
  std::size_t dim_ = 0;
  TrackedIndices indices_;
  TrackedDoubles values_;
};

/// Inner product of two sparse vectors (merge join over indices).
double Dot(const SparseVector& x, const SparseVector& y);

}  // namespace incsr::la

#endif  // INCSR_LA_VECTOR_H_

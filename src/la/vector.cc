#include "la/vector.h"

#include <algorithm>
#include <cmath>

namespace incsr::la {

Vector Vector::Basis(std::size_t n, std::size_t i) {
  INCSR_CHECK(i < n, "Basis index %zu out of dimension %zu", i, n);
  Vector e(n);
  e[i] = 1.0;
  return e;
}

void Vector::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void Vector::Axpy(double alpha, const Vector& x) {
  INCSR_CHECK(x.size() == size(), "Axpy dimension mismatch %zu vs %zu",
              x.size(), size());
  const double* __restrict xp = x.data();
  double* __restrict yp = data();
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) yp[i] += alpha * xp[i];
}

void Vector::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

double Vector::Norm2() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

double Vector::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double Vector::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

std::size_t Vector::CountNonZero(double eps) const {
  std::size_t count = 0;
  for (double v : data_) {
    if (std::fabs(v) > eps) ++count;
  }
  return count;
}

double Dot(const Vector& x, const Vector& y) {
  INCSR_CHECK(x.size() == y.size(), "Dot dimension mismatch %zu vs %zu",
              x.size(), y.size());
  double acc = 0.0;
  const double* xp = x.data();
  const double* yp = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) acc += xp[i] * yp[i];
  return acc;
}

double MaxAbsDiffSpan(const double* a, const double* b, std::size_t n,
                      double running) {
  for (std::size_t j = 0; j < n; ++j) {
    const double diff = std::fabs(a[j] - b[j]);
    // inf - inf is NaN too, but equal infinities are no difference.
    if (std::isnan(diff) && a[j] != b[j]) return diff;
    running = std::max(running, diff);
  }
  return running;
}

double MaxAbsDiff(const Vector& x, const Vector& y) {
  INCSR_CHECK(x.size() == y.size(), "MaxAbsDiff dimension mismatch");
  return MaxAbsDiffSpan(x.data(), y.data(), x.size(), 0.0);
}

void SparseVector::Append(std::int32_t index, double value) {
  INCSR_DCHECK(index >= 0 && static_cast<std::size_t>(index) < dim_,
               "SparseVector index %d out of dimension %zu", index, dim_);
  INCSR_DCHECK(indices_.empty() || indices_.back() < index,
               "SparseVector indices must be strictly increasing");
  indices_.push_back(index);
  values_.push_back(value);
}

void SparseVector::Clear() {
  indices_.clear();
  values_.clear();
}

double SparseVector::At(std::int32_t index) const {
  auto it = std::lower_bound(indices_.begin(), indices_.end(), index);
  if (it == indices_.end() || *it != index) return 0.0;
  return values_[static_cast<std::size_t>(it - indices_.begin())];
}

Vector SparseVector::ToDense() const {
  Vector out(dim_);
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    out[static_cast<std::size_t>(indices_[k])] = values_[k];
  }
  return out;
}

SparseVector SparseVector::FromDense(const Vector& dense, double eps) {
  SparseVector out(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense[i]) > eps) {
      out.Append(static_cast<std::int32_t>(i), dense[i]);
    }
  }
  return out;
}

double SparseVector::DotDense(const Vector& dense) const {
  INCSR_CHECK(dense.size() == dim_, "DotDense dimension mismatch");
  double acc = 0.0;
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    acc += values_[k] * dense[static_cast<std::size_t>(indices_[k])];
  }
  return acc;
}

void SparseVector::AxpyInto(double alpha, Vector* y) const {
  INCSR_CHECK(y != nullptr && y->size() == dim_, "AxpyInto dimension mismatch");
  for (std::size_t k = 0; k < indices_.size(); ++k) {
    (*y)[static_cast<std::size_t>(indices_[k])] += alpha * values_[k];
  }
}

double Dot(const SparseVector& x, const SparseVector& y) {
  INCSR_CHECK(x.dim() == y.dim(), "Sparse Dot dimension mismatch");
  double acc = 0.0;
  std::size_t a = 0;
  std::size_t b = 0;
  const auto& xi = x.indices();
  const auto& yi = y.indices();
  while (a < xi.size() && b < yi.size()) {
    if (xi[a] < yi[b]) {
      ++a;
    } else if (yi[b] < xi[a]) {
      ++b;
    } else {
      acc += x.values()[a] * y.values()[b];
      ++a;
      ++b;
    }
  }
  return acc;
}

}  // namespace incsr::la

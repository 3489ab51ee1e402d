#include "la/dense_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/scheduler.h"

namespace incsr::la {

DenseMatrix DenseMatrix::Identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::Diagonal(const Vector& diag) {
  DenseMatrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

DenseMatrix DenseMatrix::FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  std::size_t r = rows.size();
  std::size_t c = r == 0 ? 0 : rows.begin()->size();
  DenseMatrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    INCSR_CHECK(row.size() == c, "FromRows: ragged row %zu", i);
    std::size_t j = 0;
    for (double v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

DenseMatrix DenseMatrix::OuterProduct(const Vector& x, const Vector& y) {
  DenseMatrix m(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    double* row = m.RowPtr(i);
    for (std::size_t j = 0; j < y.size(); ++j) row[j] = xi * y[j];
  }
  return m;
}

Vector DenseMatrix::Row(std::size_t i) const {
  INCSR_CHECK(i < rows_, "Row %zu out of %zu", i, rows_);
  Vector out(cols_);
  const double* row = RowPtr(i);
  for (std::size_t j = 0; j < cols_; ++j) out[j] = row[j];
  return out;
}

Vector DenseMatrix::Col(std::size_t j) const {
  INCSR_CHECK(j < cols_, "Col %zu out of %zu", j, cols_);
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) out[i] = (*this)(i, j);
  return out;
}

void DenseMatrix::SetRow(std::size_t i, const Vector& row) {
  INCSR_CHECK(i < rows_ && row.size() == cols_, "SetRow shape mismatch");
  double* dst = RowPtr(i);
  for (std::size_t j = 0; j < cols_; ++j) dst[j] = row[j];
}

void DenseMatrix::SetCol(std::size_t j, const Vector& col) {
  INCSR_CHECK(j < cols_ && col.size() == rows_, "SetCol shape mismatch");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = col[i];
}

void DenseMatrix::SetZero() { std::fill(data_.begin(), data_.end(), 0.0); }

void DenseMatrix::AddScaled(double alpha, const DenseMatrix& other) {
  INCSR_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
              "AddScaled shape mismatch");
  const double* __restrict src = other.data_.data();
  double* __restrict dst = data_.data();
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void DenseMatrix::Scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

void DenseMatrix::AddScaledIdentity(double alpha) {
  INCSR_CHECK(rows_ == cols_, "AddScaledIdentity requires a square matrix");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, i) += alpha;
}

void DenseMatrix::AddOuterProduct(double alpha, const Vector& x,
                                  const Vector& y, std::size_t num_threads) {
  INCSR_CHECK(x.size() == rows_ && y.size() == cols_,
              "AddOuterProduct shape mismatch");
  const double* __restrict yp = y.data();
  // At least ~4096 fused multiply-adds per chunk so short rows batch up;
  // a grain function of the shape only, per the scheduler's determinism
  // rules.
  const std::size_t grain =
      std::max<std::size_t>(1, 4096 / std::max<std::size_t>(cols_, 1));
  Scheduler::Global().ParallelFor(
      0, rows_, grain, num_threads,
      [this, alpha, &x, yp](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const double f = alpha * x[i];
          if (f == 0.0) continue;
          double* __restrict row = RowPtr(i);
          for (std::size_t j = 0; j < cols_; ++j) row[j] += f * yp[j];
        }
      });
}

Vector DenseMatrix::Multiply(const Vector& x) const {
  INCSR_CHECK(x.size() == cols_, "Multiply dimension mismatch");
  Vector out(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += row[j] * x[j];
    out[i] = acc;
  }
  return out;
}

Vector DenseMatrix::MultiplyTranspose(const Vector& x) const {
  INCSR_CHECK(x.size() == rows_, "MultiplyTranspose dimension mismatch");
  Vector out(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    const double* __restrict row = RowPtr(i);
    double* __restrict op = out.data();
    for (std::size_t j = 0; j < cols_; ++j) op[j] += xi * row[j];
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  TransposeRows(&out, 0, cols_);
  return out;
}

void DenseMatrix::TransposeRows(DenseMatrix* out, std::size_t begin,
                                std::size_t end) const {
  INCSR_CHECK(out->rows_ == cols_ && out->cols_ == rows_ && begin <= end &&
                  end <= cols_,
              "TransposeRows shape mismatch");
  // 32×32 tiles: each source cache line is reused across a tile's rows.
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = begin; ib < end; ib += kBlock) {
    const std::size_t imax = std::min(end, ib + kBlock);
    for (std::size_t jb = 0; jb < rows_; jb += kBlock) {
      const std::size_t jmax = std::min(rows_, jb + kBlock);
      for (std::size_t i = ib; i < imax; ++i) {
        double* __restrict orow = out->RowPtr(i);
        for (std::size_t j = jb; j < jmax; ++j) orow[j] = (*this)(j, i);
      }
    }
  }
}

double DenseMatrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double DenseMatrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

std::size_t DenseMatrix::CountNonZero(double eps) const {
  std::size_t count = 0;
  for (double v : data_) {
    if (std::fabs(v) > eps) ++count;
  }
  return count;
}

bool DenseMatrix::IsSymmetric(double eps) const {
  if (rows_ != cols_) return false;
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = i + 1; j < cols_; ++j) {
      if (std::fabs((*this)(i, j) - (*this)(j, i)) > eps) return false;
    }
  }
  return true;
}

std::string DenseMatrix::ToString(int precision) const {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      std::snprintf(buf, sizeof(buf), "% .*f ", precision, (*this)(i, j));
      out += buf;
    }
    out += '\n';
  }
  return out;
}

namespace {

// Row grain targeting ~16K flops per chunk; a function of the shapes
// only, per the scheduler's determinism rules.
std::size_t RowGrainForFlops(std::size_t flops_per_row) {
  return std::max<std::size_t>(
      1, 16384 / std::max<std::size_t>(flops_per_row, 1));
}

}  // namespace

DenseMatrix Multiply(const DenseMatrix& a, const DenseMatrix& b) {
  INCSR_CHECK(a.cols() == b.rows(), "Multiply shape mismatch (%zu vs %zu)",
              a.cols(), b.rows());
  DenseMatrix c(a.rows(), b.cols());
  const std::size_t n = b.cols();
  // Output rows are disjoint and each is accumulated in the same serial
  // k-order regardless of chunking, so the product is bitwise identical
  // at any thread count. The incsvd serve path (SimRankFromFactors)
  // rides this kernel.
  Scheduler::Global().ParallelFor(
      0, a.rows(), RowGrainForFlops(a.cols() * n),
      Scheduler::ResolveNumThreads(0),
      [&a, &b, &c, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double* __restrict crow = c.RowPtr(i);
          for (std::size_t k = 0; k < a.cols(); ++k) {
            double aik = a(i, k);
            if (aik == 0.0) continue;
            const double* __restrict brow = b.RowPtr(k);
            for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
          }
        }
      });
  return c;
}

DenseMatrix MultiplyTransposeB(const DenseMatrix& a, const DenseMatrix& b) {
  INCSR_CHECK(a.cols() == b.cols(), "MultiplyTransposeB shape mismatch");
  DenseMatrix c(a.rows(), b.rows());
  // Same disjoint-row argument as Multiply: bitwise identical to serial.
  Scheduler::Global().ParallelFor(
      0, a.rows(), RowGrainForFlops(b.rows() * a.cols()),
      Scheduler::ResolveNumThreads(0),
      [&a, &b, &c](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const double* arow = a.RowPtr(i);
          for (std::size_t j = 0; j < b.rows(); ++j) {
            const double* brow = b.RowPtr(j);
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k) {
              acc += arow[k] * brow[k];
            }
            c(i, j) = acc;
          }
        }
      });
  return c;
}

DenseMatrix MultiplyTransposeA(const DenseMatrix& a, const DenseMatrix& b) {
  INCSR_CHECK(a.rows() == b.rows(), "MultiplyTransposeA shape mismatch");
  DenseMatrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.RowPtr(k);
    const double* brow = b.RowPtr(k);
    for (std::size_t i = 0; i < a.cols(); ++i) {
      double aki = arow[i];
      if (aki == 0.0) continue;
      double* crow = c.RowPtr(i);
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  return MaxAbsDiffRows(a, b);
}

bool BitwiseEqual(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.RowPtr(i), b.RowPtr(i),
                    a.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace incsr::la

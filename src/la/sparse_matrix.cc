#include "la/sparse_matrix.h"

#include <algorithm>
#include <tuple>

namespace incsr::la {

CsrMatrix CsrMatrix::FromTriplets(
    std::size_t rows, std::size_t cols,
    std::vector<std::tuple<std::int32_t, std::int32_t, double>> triplets) {
  std::sort(triplets.begin(), triplets.end());
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.entries_.reserve(triplets.size());
  std::size_t k = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    m.row_ptr_[i] = static_cast<std::int64_t>(m.entries_.size());
    while (k < triplets.size() &&
           static_cast<std::size_t>(std::get<0>(triplets[k])) == i) {
      std::int32_t col = std::get<1>(triplets[k]);
      double value = std::get<2>(triplets[k]);
      INCSR_CHECK(col >= 0 && static_cast<std::size_t>(col) < cols,
                  "triplet column %d out of range %zu", col, cols);
      // Coalesce duplicates.
      while (k + 1 < triplets.size() &&
             static_cast<std::size_t>(std::get<0>(triplets[k + 1])) == i &&
             std::get<1>(triplets[k + 1]) == col) {
        ++k;
        value += std::get<2>(triplets[k]);
      }
      m.entries_.push_back({col, value});
      ++k;
    }
  }
  m.row_ptr_[rows] = static_cast<std::int64_t>(m.entries_.size());
  INCSR_CHECK(k == triplets.size(), "triplet row index out of range");
  return m;
}

double CsrMatrix::At(std::size_t i, std::size_t j) const {
  auto row = RowEntries(i);
  auto it = std::lower_bound(
      row.begin(), row.end(), static_cast<std::int32_t>(j),
      [](const SparseEntry& e, std::int32_t col) { return e.col < col; });
  if (it == row.end() || static_cast<std::size_t>(it->col) != j) return 0.0;
  return it->value;
}

Vector CsrMatrix::Multiply(const Vector& x) const {
  INCSR_CHECK(x.size() == cols_, "CsrMatrix::Multiply dimension mismatch");
  Vector y(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (const SparseEntry& e : RowEntries(i)) {
      acc += e.value * x[static_cast<std::size_t>(e.col)];
    }
    y[i] = acc;
  }
  return y;
}

Vector CsrMatrix::MultiplyTranspose(const Vector& x) const {
  INCSR_CHECK(x.size() == rows_,
              "CsrMatrix::MultiplyTranspose dimension mismatch");
  Vector y(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    for (const SparseEntry& e : RowEntries(i)) {
      y[static_cast<std::size_t>(e.col)] += xi * e.value;
    }
  }
  return y;
}

DenseMatrix CsrMatrix::MultiplyDense(const DenseMatrix& b) const {
  DenseMatrix c(rows_, b.cols());
  MultiplyDenseRows(b, &c, 0, rows_);
  return c;
}

void CsrMatrix::MultiplyDenseRows(const DenseMatrix& b, DenseMatrix* out,
                                  std::size_t begin, std::size_t end) const {
  INCSR_CHECK(b.rows() == cols_ && out->rows() == rows_ &&
                  out->cols() == b.cols() && begin <= end && end <= rows_,
              "MultiplyDense shape mismatch");
  const std::size_t width = b.cols();
  for (std::size_t i = begin; i < end; ++i) {
    double* __restrict crow = out->RowPtr(i);
    std::fill(crow, crow + width, 0.0);
    for (const SparseEntry& e : RowEntries(i)) {
      const double* __restrict brow = b.RowPtr(static_cast<std::size_t>(e.col));
      const double w = e.value;
      for (std::size_t j = 0; j < width; ++j) crow[j] += w * brow[j];
    }
  }
}

DenseMatrix CsrMatrix::MultiplyTransposeDense(const DenseMatrix& b) const {
  INCSR_CHECK(b.rows() == rows_, "MultiplyTransposeDense shape mismatch");
  DenseMatrix c(cols_, b.cols());
  const std::size_t width = b.cols();
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* __restrict brow = b.RowPtr(i);
    for (const SparseEntry& e : RowEntries(i)) {
      double* __restrict crow = c.RowPtr(static_cast<std::size_t>(e.col));
      const double w = e.value;
      for (std::size_t j = 0; j < width; ++j) crow[j] += w * brow[j];
    }
  }
  return c;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (const SparseEntry& e : RowEntries(i)) {
      m(i, static_cast<std::size_t>(e.col)) = e.value;
    }
  }
  return m;
}

std::size_t DynamicRowMatrix::nnz() const {
  std::size_t total = 0;
  for (const auto& row : row_data_) total += row.size();
  return total;
}

void DynamicRowMatrix::SetRow(std::size_t i, TrackedEntries entries) {
  INCSR_CHECK(i < rows_, "SetRow row %zu out of %zu", i, rows_);
  for (std::size_t k = 0; k < entries.size(); ++k) {
    INCSR_CHECK(entries[k].col >= 0 &&
                    static_cast<std::size_t>(entries[k].col) < cols_,
                "SetRow column %d out of range %zu", entries[k].col, cols_);
    if (k > 0) {
      INCSR_CHECK(entries[k - 1].col < entries[k].col,
                  "SetRow entries must be sorted by unique column");
    }
  }
  row_data_[i] = std::move(entries);
}

void DynamicRowMatrix::ClearRow(std::size_t i) {
  INCSR_CHECK(i < rows_, "ClearRow row %zu out of %zu", i, rows_);
  row_data_[i].clear();
}

void DynamicRowMatrix::Grow(std::size_t rows, std::size_t cols) {
  INCSR_CHECK(rows >= rows_ && cols >= cols_, "Grow never shrinks");
  rows_ = rows;
  cols_ = cols;
  row_data_.resize(rows);
}

double DynamicRowMatrix::At(std::size_t i, std::size_t j) const {
  auto row = RowEntries(i);
  auto it = std::lower_bound(
      row.begin(), row.end(), static_cast<std::int32_t>(j),
      [](const SparseEntry& e, std::int32_t col) { return e.col < col; });
  if (it == row.end() || static_cast<std::size_t>(it->col) != j) return 0.0;
  return it->value;
}

Vector DynamicRowMatrix::Multiply(const Vector& x) const {
  INCSR_CHECK(x.size() == cols_, "DynamicRowMatrix::Multiply mismatch");
  Vector y(rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (const SparseEntry& e : row_data_[i]) {
      acc += e.value * x[static_cast<std::size_t>(e.col)];
    }
    y[i] = acc;
  }
  return y;
}

Vector DynamicRowMatrix::MultiplyTranspose(const Vector& x) const {
  INCSR_CHECK(x.size() == rows_,
              "DynamicRowMatrix::MultiplyTranspose mismatch");
  Vector y(cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    double xi = x[i];
    if (xi == 0.0) continue;
    for (const SparseEntry& e : row_data_[i]) {
      y[static_cast<std::size_t>(e.col)] += xi * e.value;
    }
  }
  return y;
}

double DynamicRowMatrix::RowDot(std::size_t i, const Vector& x) const {
  INCSR_CHECK(i < rows_ && x.size() == cols_, "RowDot shape mismatch");
  double acc = 0.0;
  for (const SparseEntry& e : row_data_[i]) {
    acc += e.value * x[static_cast<std::size_t>(e.col)];
  }
  return acc;
}

SparseVector DynamicRowMatrix::RowAsSparseVector(std::size_t i) const {
  INCSR_CHECK(i < rows_, "RowAsSparseVector row out of range");
  SparseVector out(cols_);
  for (const SparseEntry& e : row_data_[i]) out.Append(e.col, e.value);
  return out;
}

CsrMatrix DynamicRowMatrix::ToCsr() const {
  std::vector<std::tuple<std::int32_t, std::int32_t, double>> triplets;
  triplets.reserve(nnz());
  for (std::size_t i = 0; i < rows_; ++i) {
    for (const SparseEntry& e : row_data_[i]) {
      triplets.emplace_back(static_cast<std::int32_t>(i), e.col, e.value);
    }
  }
  return CsrMatrix::FromTriplets(rows_, cols_, std::move(triplets));
}

DenseMatrix DynamicRowMatrix::ToDense() const {
  DenseMatrix m(rows_, cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (const SparseEntry& e : row_data_[i]) {
      m(i, static_cast<std::size_t>(e.col)) = e.value;
    }
  }
  return m;
}

}  // namespace incsr::la

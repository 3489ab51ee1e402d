// Unit and property tests for the linear-algebra substrate: vectors, dense
// matrices, sparse matrices, LU, Kronecker utilities, the Sylvester
// solvers, and MaxAbsDiff's NaN contract across every container.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "la/dense_matrix.h"
#include "la/kron.h"
#include "la/lu.h"
#include "la/score_store.h"
#include "la/sparse_matrix.h"
#include "la/sylvester.h"
#include "la/vector.h"

namespace incsr::la {
namespace {

DenseMatrix RandomMatrix(std::size_t rows, std::size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng->NextGaussian();
  }
  return m;
}

TEST(VectorTest, BasisAndNorms) {
  Vector e = Vector::Basis(5, 2);
  EXPECT_EQ(e.size(), 5u);
  EXPECT_DOUBLE_EQ(e[2], 1.0);
  EXPECT_DOUBLE_EQ(e.Norm2(), 1.0);
  EXPECT_DOUBLE_EQ(e.Sum(), 1.0);
  EXPECT_EQ(e.CountNonZero(), 1u);
}

TEST(VectorTest, AxpyDotScale) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(Dot(x, y), 32.0);
  y.Axpy(2.0, x);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  y.Scale(0.5);
  EXPECT_DOUBLE_EQ(y[1], 4.5);
}

TEST(VectorTest, MaxAbsAndDiff) {
  Vector x{-3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(x.MaxAbs(), 3.0);
  Vector y{-3.0, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(MaxAbsDiff(x, y), 0.5);
}

TEST(SparseVectorTest, AppendAtToDense) {
  SparseVector sv(6);
  sv.Append(1, 2.0);
  sv.Append(4, -1.0);
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_DOUBLE_EQ(sv.At(1), 2.0);
  EXPECT_DOUBLE_EQ(sv.At(2), 0.0);
  Vector dense = sv.ToDense();
  EXPECT_DOUBLE_EQ(dense[4], -1.0);
  EXPECT_EQ(dense.CountNonZero(), 2u);
}

TEST(SparseVectorTest, FromDenseRoundTrip) {
  Vector dense{0.0, 1.5, 0.0, -2.0, 0.0};
  SparseVector sv = SparseVector::FromDense(dense);
  EXPECT_EQ(sv.nnz(), 2u);
  EXPECT_EQ(MaxAbsDiff(sv.ToDense(), dense), 0.0);
}

TEST(SparseVectorTest, DotAndAxpy) {
  SparseVector a(5);
  a.Append(0, 1.0);
  a.Append(3, 2.0);
  SparseVector b(5);
  b.Append(3, 4.0);
  b.Append(4, 1.0);
  EXPECT_DOUBLE_EQ(Dot(a, b), 8.0);
  Vector dense{1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.DotDense(dense), 3.0);
  a.AxpyInto(2.0, &dense);
  EXPECT_DOUBLE_EQ(dense[0], 3.0);
  EXPECT_DOUBLE_EQ(dense[3], 5.0);
}

TEST(DenseMatrixTest, IdentityAndDiagonal) {
  DenseMatrix id = DenseMatrix::Identity(3);
  EXPECT_DOUBLE_EQ(id(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  DenseMatrix d = DenseMatrix::Diagonal(Vector{2.0, 3.0});
  EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
}

TEST(DenseMatrixTest, MultiplyAgainstHandComputed) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  DenseMatrix b = DenseMatrix::FromRows({{5, 6}, {7, 8}});
  DenseMatrix c = Multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(DenseMatrixTest, TransposeVariantsAgree) {
  Rng rng(7);
  DenseMatrix a = RandomMatrix(9, 5, &rng);
  DenseMatrix b = RandomMatrix(7, 5, &rng);
  // A·Bᵀ two ways.
  DenseMatrix direct = MultiplyTransposeB(a, b);
  DenseMatrix via_transpose = Multiply(a, b.Transpose());
  EXPECT_LT(MaxAbsDiff(direct, via_transpose), 1e-12);
  // Aᵀ·B two ways.
  DenseMatrix c = RandomMatrix(9, 4, &rng);
  DenseMatrix direct2 = MultiplyTransposeA(a, c);
  DenseMatrix via2 = Multiply(a.Transpose(), c);
  EXPECT_LT(MaxAbsDiff(direct2, via2), 1e-12);
}

TEST(DenseMatrixTest, OuterProductAndRankOneUpdate) {
  Vector x{1.0, 2.0};
  Vector y{3.0, 4.0, 5.0};
  DenseMatrix outer = DenseMatrix::OuterProduct(x, y);
  EXPECT_DOUBLE_EQ(outer(1, 2), 10.0);
  DenseMatrix m(2, 3);
  m.AddOuterProduct(2.0, x, y);
  EXPECT_DOUBLE_EQ(m(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 16.0);
}

TEST(DenseMatrixTest, MultiplyVector) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Vector x{1.0, 0.0, -1.0};
  Vector y = a.Multiply(x);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
  Vector z{1.0, 1.0};
  Vector t = a.MultiplyTranspose(z);
  EXPECT_DOUBLE_EQ(t[0], 5.0);
  EXPECT_DOUBLE_EQ(t[2], 9.0);
}

TEST(DenseMatrixTest, SymmetryAndNonZeroCounts) {
  DenseMatrix m = DenseMatrix::FromRows({{1, 2}, {2, 1}});
  EXPECT_TRUE(m.IsSymmetric());
  m(0, 1) = 2.5;
  EXPECT_FALSE(m.IsSymmetric(1e-9));
  EXPECT_EQ(m.CountNonZero(), 4u);
}

// MaxAbsDiff is the tolerance check behind most suites
// (`EXPECT_LE(MaxAbsDiff(..), tol)`), so a NaN anywhere must surface as
// NaN — which fails that check — in every overload, not vanish.
TEST(MaxAbsDiffTest, NaNPropagatesThroughEveryOverload) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const DenseMatrix zero(3, 4);
  DenseMatrix poisoned(3, 4);
  poisoned(1, 2) = nan;
  poisoned(2, 3) = 5.0;  // a later finite difference must not mask it
  EXPECT_TRUE(std::isnan(MaxAbsDiff(poisoned, zero)));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(zero, poisoned)));
  EXPECT_FALSE(MaxAbsDiff(poisoned, zero) <= 1e-9);

  ScoreStore store(poisoned);
  const ScoreStore clean(zero);
  EXPECT_TRUE(std::isnan(MaxAbsDiff(store, zero)));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(zero, store)));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(clean, store)));
  ScoreStore clean_copy(zero);
  const ScoreStore::View clean_view = clean_copy.Publish();
  const ScoreStore::View view = store.Publish();
  EXPECT_TRUE(std::isnan(MaxAbsDiff(view, zero)));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(clean_view, view)));
  // A sparse-backed row keeps the NaN (it is never "below ε").
  store.set_sparsity({.epsilon = 1e-3, .max_density = 1.0});
  ASSERT_TRUE(store.SparsifyRow(1, {}));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(store, zero)));

  Vector x(3);
  const Vector y(3);
  x[1] = nan;
  EXPECT_TRUE(std::isnan(MaxAbsDiff(x, y)));
  EXPECT_TRUE(std::isnan(MaxAbsDiff(y, x)));

  // Equal infinities are no difference; finite inputs are unchanged.
  DenseMatrix inf(1, 2);
  inf(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(MaxAbsDiff(inf, inf), 0.0);
  EXPECT_EQ(MaxAbsDiff(inf, DenseMatrix(1, 2)),
            std::numeric_limits<double>::infinity());
  poisoned(1, 2) = -2.0;
  EXPECT_EQ(MaxAbsDiff(poisoned, zero), 5.0);
  EXPECT_EQ(MaxAbsDiff(ScoreStore(poisoned), zero), 5.0);
}

TEST(CsrMatrixTest, FromTripletsCoalescesDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0}, {0, 1, 2.0}, {2, 0, 5.0}, {1, 2, -1.0}});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.At(1, 1), 0.0);
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  Rng rng(11);
  std::vector<std::tuple<std::int32_t, std::int32_t, double>> triplets;
  for (int k = 0; k < 40; ++k) {
    triplets.emplace_back(static_cast<std::int32_t>(rng.NextBounded(8)),
                          static_cast<std::int32_t>(rng.NextBounded(8)),
                          rng.NextGaussian());
  }
  CsrMatrix sparse = CsrMatrix::FromTriplets(8, 8, triplets);
  DenseMatrix dense = sparse.ToDense();
  Vector x(8);
  for (std::size_t i = 0; i < 8; ++i) x[i] = rng.NextGaussian();
  EXPECT_LT(MaxAbsDiff(sparse.Multiply(x), dense.Multiply(x)), 1e-12);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyTranspose(x), dense.MultiplyTranspose(x)),
            1e-12);
  DenseMatrix b = RandomMatrix(8, 6, &rng);
  EXPECT_LT(MaxAbsDiff(sparse.MultiplyDense(b), Multiply(dense, b)), 1e-12);
}

TEST(DynamicRowMatrixTest, SetRowAndMutation) {
  DynamicRowMatrix m(3, 4);
  m.SetRow(1, {{0, 0.5}, {3, 0.5}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.At(1, 3), 0.5);
  m.SetRow(1, {{2, 1.0}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.At(1, 3), 0.0);
  m.ClearRow(1);
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(DynamicRowMatrixTest, CsrSnapshotMatches) {
  DynamicRowMatrix m(3, 3);
  m.SetRow(0, {{1, 2.0}});
  m.SetRow(2, {{0, -1.0}, {2, 4.0}});
  CsrMatrix csr = m.ToCsr();
  EXPECT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(MaxAbsDiff(csr.ToDense(), m.ToDense()), 0.0);
}

TEST(DynamicRowMatrixTest, RowDotAndSparseRow) {
  DynamicRowMatrix m(2, 4);
  m.SetRow(0, {{1, 2.0}, {3, -1.0}});
  Vector x{1.0, 10.0, 100.0, 1000.0};
  EXPECT_DOUBLE_EQ(m.RowDot(0, x), -980.0);
  SparseVector row = m.RowAsSparseVector(0);
  EXPECT_EQ(row.nnz(), 2u);
  EXPECT_DOUBLE_EQ(row.At(3), -1.0);
}

TEST(DynamicRowMatrixTest, GrowPreservesContents) {
  DynamicRowMatrix m(2, 2);
  m.SetRow(0, {{1, 3.0}});
  m.Grow(4, 5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 3.0);
  m.SetRow(3, {{4, 1.0}});
  EXPECT_DOUBLE_EQ(m.At(3, 4), 1.0);
}

TEST(LuTest, SolvesKnownSystem) {
  DenseMatrix a = DenseMatrix::FromRows({{2, 1}, {1, 3}});
  auto lu = LuFactorization::Compute(a);
  ASSERT_TRUE(lu.ok());
  auto x = lu->Solve(Vector{5.0, 10.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
  EXPECT_NEAR(lu->Determinant(), 5.0, 1e-12);
}

TEST(LuTest, RandomRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    DenseMatrix a = RandomMatrix(12, 12, &rng);
    Vector x_true(12);
    for (std::size_t i = 0; i < 12; ++i) x_true[i] = rng.NextGaussian();
    Vector b = a.Multiply(x_true);
    auto lu = LuFactorization::Compute(a);
    ASSERT_TRUE(lu.ok());
    auto x = lu->Solve(b);
    ASSERT_TRUE(x.ok());
    EXPECT_LT(MaxAbsDiff(x.value(), x_true), 1e-9);
  }
}

TEST(LuTest, SingularIsRejected) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {2, 4}});
  auto lu = LuFactorization::Compute(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_EQ(lu.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LuTest, NonSquareIsRejected) {
  DenseMatrix a(2, 3);
  EXPECT_EQ(LuFactorization::Compute(a).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KronTest, MatchesDefinition) {
  DenseMatrix a = DenseMatrix::FromRows({{1, 2}, {3, 4}});
  DenseMatrix b = DenseMatrix::FromRows({{0, 5}, {6, 7}});
  DenseMatrix k = Kron(a, b);
  ASSERT_EQ(k.rows(), 4u);
  EXPECT_DOUBLE_EQ(k(0, 1), 5.0);    // a00*b01
  EXPECT_DOUBLE_EQ(k(1, 0), 6.0);    // a00*b10
  EXPECT_DOUBLE_EQ(k(3, 2), 4.0 * 6.0);
}

TEST(KronTest, VecIdentityHolds) {
  // vec(A·X·B) = (Bᵀ ⊗ A)·vec(X).
  Rng rng(5);
  DenseMatrix a = RandomMatrix(3, 3, &rng);
  DenseMatrix x = RandomMatrix(3, 4, &rng);
  DenseMatrix b = RandomMatrix(4, 4, &rng);
  Vector lhs = Vec(Multiply(Multiply(a, x), b));
  Vector rhs = Kron(b.Transpose(), a).Multiply(Vec(x));
  EXPECT_LT(MaxAbsDiff(lhs, rhs), 1e-12);
}

TEST(KronTest, UnvecRoundTrip) {
  Rng rng(9);
  DenseMatrix x = RandomMatrix(4, 3, &rng);
  EXPECT_EQ(MaxAbsDiff(Unvec(Vec(x), 4, 3), x), 0.0);
}

TEST(SylvesterTest, FixedPointAndKronAgree) {
  Rng rng(13);
  DenseMatrix w = RandomMatrix(5, 5, &rng);
  // Scale W so the iteration is a contraction.
  w.Scale(0.3 / (w.MaxAbs() * 5.0 + 1e-9));
  DenseMatrix c0 = RandomMatrix(5, 5, &rng);
  auto fixed = SolveSylvesterFixedPoint(0.8, w, w, c0, {.iterations = 200});
  auto direct = SolveSylvesterKron(0.8, w, w, c0);
  ASSERT_TRUE(fixed.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(MaxAbsDiff(fixed.value(), direct.value()), 1e-10);
  // Both satisfy the equation X = c·W·X·Wᵀ + C0.
  DenseMatrix residual = Multiply(Multiply(w, direct.value()), w.Transpose());
  residual.Scale(0.8);
  residual.AddScaled(1.0, c0);
  EXPECT_LT(MaxAbsDiff(residual, direct.value()), 1e-10);
}

TEST(SylvesterTest, DivergenceIsDetected) {
  DenseMatrix w = DenseMatrix::FromRows({{2.0, 0.0}, {0.0, 2.0}});
  DenseMatrix c0 = DenseMatrix::Identity(2);
  auto result = SolveSylvesterFixedPoint(1.0, w, w, c0, {.iterations = 100});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SylvesterTest, ShapeMismatchIsRejected) {
  DenseMatrix w(3, 3);
  DenseMatrix c0(2, 3);
  EXPECT_FALSE(SolveSylvesterFixedPoint(0.5, w, w, c0).ok());
  EXPECT_FALSE(SolveSylvesterKron(0.5, w, w, c0).ok());
}

}  // namespace
}  // namespace incsr::la

// Tests for the batch SimRank algorithms: agreement between the naive
// Jeh-Widom iteration and the partial-sums optimization, matrix-form
// invariants, convergence behaviour, and the path-counting interpretation
// (Corollary 1 / Eq. 34) that underpins the pruning theory.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "simrank/batch_matrix.h"
#include "simrank/batch_naive.h"
#include "simrank/batch_partial_sums.h"

namespace incsr::simrank {
namespace {

using graph::DynamicDiGraph;

DynamicDiGraph PaperStyleGraph() {
  DynamicDiGraph g(6);
  for (auto [s, d] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 0}, {2, 5}, {5, 3}}) {
    INCSR_CHECK(g.AddEdge(s, d).ok(), "edge (%d,%d)", s, d);
  }
  return g;
}

TEST(BatchNaive, HandComputedTwoNodeExample) {
  // Nodes {0,1} both cited by node 2: after one iteration
  // s(0,1) = C/(1·1) · s(2,2) = C.
  DynamicDiGraph g(3);
  ASSERT_TRUE(g.AddEdge(2, 0).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  SimRankOptions options;
  options.damping = 0.8;
  options.iterations = 1;
  la::DenseMatrix s = BatchNaive(g, options);
  EXPECT_DOUBLE_EQ(s(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(s(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(s(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(s(0, 2), 0.0);  // node 2 has no in-neighbors
}

TEST(BatchNaive, ScoresAreSymmetricBoundedAndUnitDiagonal) {
  la::DenseMatrix s = BatchNaive(PaperStyleGraph(), {});
  EXPECT_TRUE(s.IsSymmetric(1e-14));
  for (std::size_t i = 0; i < s.rows(); ++i) {
    EXPECT_DOUBLE_EQ(s(i, i), 1.0);
    for (std::size_t j = 0; j < s.cols(); ++j) {
      EXPECT_GE(s(i, j), 0.0);
      EXPECT_LE(s(i, j), 1.0);
    }
  }
}

TEST(BatchPartialSums, MatchesNaiveExactly) {
  // The Lizorkin optimization is a pure refactoring of the same iteration:
  // results agree to rounding on arbitrary graphs.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto stream = graph::ErdosRenyiGnm(18, 60, seed);
    ASSERT_TRUE(stream.ok());
    DynamicDiGraph g = graph::MaterializeGraph(18, stream.value());
    SimRankOptions options;
    options.iterations = 8;
    EXPECT_LT(
        la::MaxAbsDiff(BatchNaive(g, options), BatchPartialSums(g, options)),
        1e-12)
        << "seed " << seed;
  }
}

TEST(BatchPartialSums, HandlesSinksAndSources) {
  DynamicDiGraph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());  // node 0: source, node 3: isolated
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  SimRankOptions options;
  la::DenseMatrix s = BatchPartialSums(g, options);
  EXPECT_DOUBLE_EQ(s(3, 3), 1.0);   // iterative form: diag always 1
  EXPECT_DOUBLE_EQ(s(0, 3), 0.0);
  EXPECT_LT(la::MaxAbsDiff(s, BatchNaive(g, options)), 1e-14);
}

TEST(BatchMatrix, SatisfiesFixedPointEquation) {
  DynamicDiGraph g = PaperStyleGraph();
  SimRankOptions options;
  options.iterations = 80;  // converged
  la::DenseMatrix s = BatchMatrix(g, options);
  // S must satisfy S = C·Q·S·Qᵀ + (1−C)·I.
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  la::DenseMatrix qs = q.MultiplyDense(s);
  la::DenseMatrix qsqt = q.MultiplyDense(qs.Transpose());
  qsqt.Scale(options.damping);
  qsqt.AddScaledIdentity(1.0 - options.damping);
  EXPECT_LT(la::MaxAbsDiff(qsqt.Transpose(), s), 1e-12);
}

TEST(BatchMatrix, MatchesSeriesInterpretation) {
  // Eq. (34): [S]_{a,b} = (1−C)·Σₖ Cᵏ·[Qᵏ(Qᵀ)ᵏ]_{a,b} — the symmetric
  // in-link path interpretation behind the pruning theory.
  DynamicDiGraph g = PaperStyleGraph();
  SimRankOptions options;
  options.damping = 0.7;
  options.iterations = 40;
  la::DenseMatrix s = BatchMatrix(g, options);

  la::DenseMatrix q = graph::BuildTransitionCsr(g).ToDense();
  const std::size_t n = q.rows();
  la::DenseMatrix term = la::DenseMatrix::Identity(n);
  la::DenseMatrix series(n, n);
  double weight = 1.0 - options.damping;
  for (int k = 0; k <= options.iterations; ++k) {
    series.AddScaled(weight, term);
    // term ← Q·term·Qᵀ
    term = la::MultiplyTransposeB(la::Multiply(q, term), q);
    weight *= options.damping;
  }
  EXPECT_LT(la::MaxAbsDiff(s, series), 1e-9);
}

TEST(BatchMatrix, DiagonalOfIsolatedNodeIsOneMinusC) {
  DynamicDiGraph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  SimRankOptions options;
  la::DenseMatrix s = BatchMatrix(g, options);
  // Matrix form: node 2 (isolated) has [S]_{2,2} = 1 − C, and a node whose
  // single in-neighbor is a source has [S]_{1,1} = (1−C)(1 + C).
  EXPECT_DOUBLE_EQ(s(2, 2), 1.0 - options.damping);
  EXPECT_NEAR(s(1, 1), (1.0 - options.damping) * (1.0 + options.damping),
              1e-12);
}

TEST(BatchMatrix, ConvergenceBoundHolds) {
  DynamicDiGraph g = PaperStyleGraph();
  SimRankOptions coarse;
  coarse.iterations = 6;
  SimRankOptions fine;
  fine.iterations = 80;
  double diff = la::MaxAbsDiff(BatchMatrix(g, coarse), BatchMatrix(g, fine));
  EXPECT_LT(diff, ConvergenceBound(coarse));
}

TEST(BatchMatrix, StructuralZerosStayExact) {
  // Two nodes with no symmetric in-link paths must score exactly 0.0 (not
  // merely small) — the property the Inc-SR pruning relies on.
  DynamicDiGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 3).ok());  // components {0,1} and {2,3}, 4 isolated
  la::DenseMatrix s = BatchMatrix(g, {});
  EXPECT_EQ(s(1, 3), 0.0);
  EXPECT_EQ(s(0, 2), 0.0);
  EXPECT_EQ(s(0, 4), 0.0);
}

TEST(BatchMatrix, FromTransitionAgreesWithFromGraph) {
  DynamicDiGraph g = PaperStyleGraph();
  SimRankOptions options;
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  EXPECT_EQ(la::MaxAbsDiff(BatchMatrix(g, options),
                           BatchMatrixFromTransition(q, options)),
            0.0);
}

// The solve as a serial loop of whole-matrix operations: the per-element
// sequence BatchMatrix must reproduce bit for bit at any thread count.
la::DenseMatrix ReferenceBatchMatrix(const DynamicDiGraph& g,
                                     const SimRankOptions& options) {
  const la::CsrMatrix q = graph::BuildTransitionCsr(g);
  const double c = options.damping;
  la::DenseMatrix s(q.rows(), q.rows());
  s.AddScaledIdentity(1.0 - c);
  for (int k = 0; k < options.iterations; ++k) {
    la::DenseMatrix r = q.MultiplyDense(q.MultiplyDense(s).Transpose());
    r.Scale(c);
    r.AddScaledIdentity(1.0 - c);
    s = std::move(r);
  }
  return s;
}

DynamicDiGraph CitationGraph(std::size_t num_nodes) {
  graph::CitationModelParams params;
  params.num_nodes = num_nodes;
  params.seed = 7;
  auto stream = graph::PreferentialCitation(params);
  INCSR_CHECK(stream.ok(), "citation stream");
  return graph::MaterializeGraph(num_nodes, stream.value());
}

TEST(BatchMatrix, BitwiseEqualToSerialReferenceAtEveryThreadCount) {
  const std::pair<const char*, DynamicDiGraph> graphs[] = {
      {"paper-style", PaperStyleGraph()}, {"citation-300", CitationGraph(300)}};
  for (const auto& [name, g] : graphs) {
    SimRankOptions options;
    options.iterations = 20;
    const la::DenseMatrix expected = ReferenceBatchMatrix(g, options);
    for (int threads : {1, 2, 4, 0}) {  // 0: INCSR_THREADS, then hardware
      options.num_threads = threads;
      EXPECT_TRUE(la::BitwiseEqual(BatchMatrix(g, options), expected))
          << name << ", num_threads = " << threads;
    }
  }
}

TEST(ConvergenceBound, MatchesClosedForm) {
  SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 15;
  EXPECT_NEAR(ConvergenceBound(options), std::pow(0.6, 16), 1e-15);
}

}  // namespace
}  // namespace incsr::simrank

// Cross-cutting property sweeps: SimRank invariants and incremental
// exactness over every generator family the library ships, plus façade
// behaviours that earlier suites don't pin down.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "simrank/batch_matrix.h"
#include "simrank/batch_naive.h"

namespace incsr {
namespace {

using core::DynamicSimRank;
using core::UpdateAlgorithm;
using graph::DynamicDiGraph;
using simrank::SimRankOptions;

SimRankOptions Converged(double damping = 0.6) {
  SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

enum class Family { kErdosRenyi, kCitation, kRmat, kLinkage };

struct FamilyCase {
  Family family;
  std::uint64_t seed;
};

DynamicDiGraph MakeFamilyGraph(const FamilyCase& param) {
  switch (param.family) {
    case Family::kErdosRenyi: {
      auto stream = graph::ErdosRenyiGnm(30, 90, param.seed);
      INCSR_CHECK(stream.ok(), "er");
      return graph::MaterializeGraph(30, stream.value());
    }
    case Family::kCitation: {
      auto stream = graph::PreferentialCitation(
          {.num_nodes = 30, .mean_out_degree = 3.0, .seed = param.seed});
      INCSR_CHECK(stream.ok(), "cite");
      return graph::MaterializeGraph(30, stream.value());
    }
    case Family::kRmat: {
      auto stream = graph::Rmat(
          {.scale = 5, .num_edges = 90, .seed = param.seed});
      INCSR_CHECK(stream.ok(), "rmat");
      return graph::MaterializeGraph(32, stream.value());
    }
    case Family::kLinkage: {
      auto stream = graph::EvolvingLinkage({.num_nodes = 30,
                                            .num_edges = 90,
                                            .num_communities = 3,
                                            .seed = param.seed});
      INCSR_CHECK(stream.ok(), "linkage");
      return graph::MaterializeGraph(30, stream.value());
    }
  }
  INCSR_CHECK(false, "unreachable");
  return DynamicDiGraph(0);
}

class GeneratorFamilySweep : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(GeneratorFamilySweep, MatrixFormInvariants) {
  DynamicDiGraph g = MakeFamilyGraph(GetParam());
  SimRankOptions options = Converged();
  la::DenseMatrix s = simrank::BatchMatrix(g, options);
  const std::size_t n = g.num_nodes();
  const double c = options.damping;

  EXPECT_TRUE(s.IsSymmetric(1e-12));
  for (std::size_t i = 0; i < n; ++i) {
    // Matrix-form diagonal lies in [1−C, 1]; off-diagonals in [0, 1].
    EXPECT_GE(s(i, i), 1.0 - c - 1e-12);
    EXPECT_LE(s(i, i), 1.0 + 1e-12);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(s(i, j), -1e-15);
      EXPECT_LE(s(i, j), 1.0 + 1e-12);
    }
  }
  // Fixed-point residual.
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  la::DenseMatrix qs = q.MultiplyDense(s);
  la::DenseMatrix residual = q.MultiplyDense(qs.Transpose()).Transpose();
  residual.Scale(c);
  residual.AddScaledIdentity(1.0 - c);
  EXPECT_LT(la::MaxAbsDiff(residual, s), 1e-11);
}

TEST_P(GeneratorFamilySweep, IncrementalExactnessUnderChurn) {
  DynamicDiGraph g = MakeFamilyGraph(GetParam());
  SimRankOptions options = Converged();
  auto index = DynamicSimRank::Create(g, options);
  ASSERT_TRUE(index.ok());

  Rng rng(GetParam().seed ^ 0x5555);
  for (int round = 0; round < 6; ++round) {
    graph::EdgeUpdate update;
    if (index->graph().num_edges() > 10 && rng.NextBernoulli(0.5)) {
      auto del = graph::SampleDeletions(index->graph(), 1, &rng);
      ASSERT_TRUE(del.ok());
      update = del.value()[0];
    } else {
      auto ins = graph::SampleInsertions(index->graph(), 1, &rng);
      ASSERT_TRUE(ins.ok());
      update = ins.value()[0];
    }
    ASSERT_TRUE(index->ApplyUpdate(update).ok()) << graph::ToString(update);
  }
  la::DenseMatrix expected = simrank::BatchMatrix(index->graph(), options);
  EXPECT_LT(la::MaxAbsDiff(index->scores(), expected), 1e-8);
}

std::string FamilyCaseName(const ::testing::TestParamInfo<FamilyCase>& info) {
  static const char* kNames[] = {"ErdosRenyi", "Citation", "Rmat", "Linkage"};
  return std::string(kNames[static_cast<int>(info.param.family)]) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorFamilySweep,
    ::testing::Values(FamilyCase{Family::kErdosRenyi, 1},
                      FamilyCase{Family::kErdosRenyi, 2},
                      FamilyCase{Family::kCitation, 1},
                      FamilyCase{Family::kCitation, 2},
                      FamilyCase{Family::kRmat, 1},
                      FamilyCase{Family::kRmat, 2},
                      FamilyCase{Family::kLinkage, 1},
                      FamilyCase{Family::kLinkage, 2}),
    FamilyCaseName);

TEST(FacadeProperties, CoalescedBatchMatchesSequentialFacadePath) {
  auto stream = graph::ErdosRenyiGnm(20, 60, 77);
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph g = graph::MaterializeGraph(20, stream.value());
  SimRankOptions options = Converged();

  auto a = DynamicSimRank::Create(g, options, UpdateAlgorithm::kIncSR);
  auto b = DynamicSimRank::Create(g, options, UpdateAlgorithm::kIncSR);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  Rng rng(78);
  auto batch = graph::SampleInsertions(g, 12, &rng);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(a->ApplyBatch(batch.value()).ok());
  ASSERT_TRUE(b->ApplyBatchCoalesced(batch.value()).ok());
  EXPECT_LT(la::MaxAbsDiff(a->scores(), b->scores()), 1e-10);
}

TEST(FacadeProperties, CoalescedBatchRequiresIncSrMode) {
  auto index = DynamicSimRank::Create(DynamicDiGraph(4), Converged(),
                                      UpdateAlgorithm::kIncUSR);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->ApplyBatchCoalesced({}).code(), StatusCode::kNotSupported);
}

TEST(FacadeProperties, CreateValidatesOptions) {
  SimRankOptions bad;
  bad.damping = 1.5;
  EXPECT_FALSE(DynamicSimRank::Create(DynamicDiGraph(3), bad).ok());
  bad.damping = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(DynamicSimRank::Create(DynamicDiGraph(3), bad).ok());
  bad.damping = 0.6;
  bad.iterations = 0;
  EXPECT_FALSE(DynamicSimRank::Create(DynamicDiGraph(3), bad).ok());
  // FromState applies the same option checks to a well-shaped S.
  const DynamicDiGraph g(3);
  const la::DenseMatrix s = simrank::BatchMatrix(g, Converged());
  EXPECT_FALSE(DynamicSimRank::FromState(g, s, bad).ok());
  bad.iterations = -3;
  EXPECT_FALSE(DynamicSimRank::FromState(g, s, bad).ok());
  EXPECT_TRUE(DynamicSimRank::FromState(g, s, Converged()).ok());
}

TEST(FacadeProperties, FromStateValidatesShape) {
  la::DenseMatrix wrong(2, 2);
  EXPECT_FALSE(
      DynamicSimRank::FromState(DynamicDiGraph(3), wrong, Converged()).ok());
}

TEST(FacadeProperties, IterativeFormDominatesMatrixFormOffDiagonal) {
  // Known relationship: both forms share the series structure but the
  // iterative form pins the diagonal to 1 (>= the matrix form's diagonal),
  // which propagates to >= off-diagonal scores as well.
  auto stream = graph::ErdosRenyiGnm(15, 45, 5);
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph g = graph::MaterializeGraph(15, stream.value());
  SimRankOptions options;
  options.iterations = 30;
  la::DenseMatrix iterative = simrank::BatchNaive(g, options);
  la::DenseMatrix matrix = simrank::BatchMatrix(g, options);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      EXPECT_GE(iterative(i, j), matrix(i, j) - 1e-12)
          << "(" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace incsr

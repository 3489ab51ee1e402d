// Direct verification of the paper's Theorems against brute-force linear
// algebra:
//   Theorem 1 — ΔQ = u·vᵀ exactly, for all four update cases;
//   Theorems 2-3 — the seed (γ, θ) reproduces T = u·wᵀ + w·uᵀ with
//                  w = Q·S·v + ((vᵀS v)/2)·u, and M solves the rank-one
//                  Sylvester equation;
//   Theorem 4 — Inc-SR touches no node-pair outside the affected areas
//               (its ΔS support), and pruning is lossless.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/inc_sr.h"
#include "core/inc_usr.h"
#include "core/rank_one_update.h"
#include "core/update_seed.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "simrank/batch_matrix.h"

namespace incsr::core {
namespace {

using graph::DynamicDiGraph;
using graph::EdgeUpdate;
using graph::UpdateKind;
using simrank::SimRankOptions;

SimRankOptions Converged(double damping = 0.6) {
  SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

DynamicDiGraph RandomGraph(std::size_t n, std::size_t m, std::uint64_t seed) {
  auto stream = graph::ErdosRenyiGnm(n, m, seed);
  INCSR_CHECK(stream.ok(), "generator failed");
  return graph::MaterializeGraph(n, stream.value());
}

// Brute force: ΔQ from rebuilding both transition matrices densely.
la::DenseMatrix BruteDeltaQ(const DynamicDiGraph& before,
                            const EdgeUpdate& update) {
  DynamicDiGraph after = before;
  Status s = update.kind == UpdateKind::kInsert
                 ? after.AddEdge(update.src, update.dst)
                 : after.RemoveEdge(update.src, update.dst);
  INCSR_CHECK(s.ok(), "brute force update failed: %s", s.ToString().c_str());
  la::DenseMatrix dq = graph::BuildTransition(after).ToDense();
  dq.AddScaled(-1.0, graph::BuildTransition(before).ToDense());
  return dq;
}

struct TheoremCase {
  const char* name;
  EdgeUpdate update;
};

class Theorem1Cases : public ::testing::TestWithParam<TheoremCase> {
 protected:
  // Fixed 6-node graph covering all degree regimes:
  //   in-degrees: 0:(none) 1:{0} 2:{0,1} 3:{1,2,4} 4:{3} 5:(none)
  DynamicDiGraph MakeGraph() {
    DynamicDiGraph g(6);
    for (auto [s, d] : std::initializer_list<std::pair<int, int>>{
             {0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {4, 3}, {3, 4}}) {
      INCSR_CHECK(g.AddEdge(s, d).ok(), "edge");
    }
    return g;
  }
};

TEST_P(Theorem1Cases, DeltaQIsExactlyRankOne) {
  const TheoremCase& test_case = GetParam();
  DynamicDiGraph g = MakeGraph();
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  auto rank_one = ComputeRankOneUpdate(q, test_case.update);
  ASSERT_TRUE(rank_one.ok()) << test_case.name;
  la::DenseMatrix uvT = la::DenseMatrix::OuterProduct(
      rank_one->u.ToDense(), rank_one->v.ToDense());
  EXPECT_LT(la::MaxAbsDiff(uvT, BruteDeltaQ(g, test_case.update)), 1e-15)
      << test_case.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDegreeRegimes, Theorem1Cases,
    ::testing::Values(
        TheoremCase{"insert_dj0", {UpdateKind::kInsert, 2, 0}},
        TheoremCase{"insert_dj0_into_isolated", {UpdateKind::kInsert, 1, 5}},
        TheoremCase{"insert_dj1", {UpdateKind::kInsert, 0, 4}},
        TheoremCase{"insert_dj2", {UpdateKind::kInsert, 3, 2}},
        TheoremCase{"insert_dj3", {UpdateKind::kInsert, 0, 3}},
        TheoremCase{"delete_dj1", {UpdateKind::kDelete, 0, 1}},
        TheoremCase{"delete_dj1_making_isolated", {UpdateKind::kDelete, 3, 4}},
        TheoremCase{"delete_dj2", {UpdateKind::kDelete, 1, 2}},
        TheoremCase{"delete_dj3", {UpdateKind::kDelete, 2, 3}}),
    [](const ::testing::TestParamInfo<TheoremCase>& info) {
      return info.param.name;
    });

TEST(Theorem1, RandomizedAgainstBruteForce) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    DynamicDiGraph g = RandomGraph(12, 30, 1000 + trial);
    la::DynamicRowMatrix q = graph::BuildTransition(g);
    EdgeUpdate update;
    if (rng.NextBernoulli(0.5)) {
      auto ins = graph::SampleInsertions(g, 1, &rng);
      ASSERT_TRUE(ins.ok());
      update = ins.value()[0];
    } else {
      auto del = graph::SampleDeletions(g, 1, &rng);
      ASSERT_TRUE(del.ok());
      update = del.value()[0];
    }
    auto rank_one = ComputeRankOneUpdate(q, update);
    ASSERT_TRUE(rank_one.ok()) << graph::ToString(update);
    la::DenseMatrix uvT = la::DenseMatrix::OuterProduct(
        rank_one->u.ToDense(), rank_one->v.ToDense());
    EXPECT_LT(la::MaxAbsDiff(uvT, BruteDeltaQ(g, update)), 1e-15)
        << graph::ToString(update);
  }
}

TEST(Theorem1, USupportedOnTargetVSupportedOnSourceAndOldRow) {
  DynamicDiGraph g = RandomGraph(10, 25, 5);
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  Rng rng(6);
  auto ins = graph::SampleInsertions(g, 1, &rng);
  ASSERT_TRUE(ins.ok());
  const EdgeUpdate update = ins.value()[0];
  auto rank_one = ComputeRankOneUpdate(q, update);
  ASSERT_TRUE(rank_one.ok());
  // u lives on {j} only.
  ASSERT_EQ(rank_one->u.nnz(), 1u);
  EXPECT_EQ(rank_one->u.indices()[0], update.dst);
  // v lives on {i} ∪ I_old(j).
  for (std::size_t k = 0; k < rank_one->v.nnz(); ++k) {
    std::int32_t idx = rank_one->v.indices()[k];
    EXPECT_TRUE(idx == update.src || q.At(update.dst, idx) != 0.0);
  }
}

TEST(Theorems23, SeedReproducesTMatrix) {
  // T = u·wᵀ + w·uᵀ with w = Q·z + (γ/2)·u, z = S·v, γ = vᵀ·z (Eq. 23-24),
  // and the dense seed's θ must satisfy u·wᵀ = e_j·θᵀ.
  DynamicDiGraph g = RandomGraph(14, 40, 77);
  SimRankOptions options = Converged();
  la::DenseMatrix s = simrank::BatchMatrix(g, options);  // brute-force copy
  la::ScoreStore store{s};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  Rng rng(78);
  for (int trial = 0; trial < 10; ++trial) {
    EdgeUpdate update;
    if (rng.NextBernoulli(0.5) && g.num_edges() > 0) {
      auto del = graph::SampleDeletions(g, 1, &rng);
      ASSERT_TRUE(del.ok());
      update = del.value()[0];
    } else {
      auto ins = graph::SampleInsertions(g, 1, &rng);
      ASSERT_TRUE(ins.ok());
      update = ins.value()[0];
    }
    auto seed = ComputeUpdateSeed(q, store, update, options);
    ASSERT_TRUE(seed.ok()) << graph::ToString(update);

    // Brute-force w from the definitions.
    la::Vector v = seed->rank_one.v.ToDense();
    la::Vector u = seed->rank_one.u.ToDense();
    la::Vector z = s.Multiply(v);  // S symmetric: S·v
    double gamma = la::Dot(v, z);
    la::Vector w = q.Multiply(z);
    w.Axpy(gamma / 2.0, u);
    EXPECT_NEAR(seed->gamma, gamma, 1e-9) << graph::ToString(update);

    // u·wᵀ must equal e_j·θᵀ.
    la::DenseMatrix lhs = la::DenseMatrix::OuterProduct(u, w);
    la::DenseMatrix rhs = la::DenseMatrix::OuterProduct(
        la::Vector::Basis(g.num_nodes(), update.dst), seed->theta);
    EXPECT_LT(la::MaxAbsDiff(lhs, rhs), 1e-9) << graph::ToString(update);
  }
}

TEST(Theorems23, DeltaSolvesRankOneSylvesterEquation) {
  // ΔS from Inc-uSR must satisfy (to truncation error)
  //   ΔS = C·Q̃·ΔS·Q̃ᵀ + C·(u·wᵀ + w·uᵀ).
  DynamicDiGraph g = RandomGraph(10, 24, 55);
  SimRankOptions options = Converged();
  la::DenseMatrix s = simrank::BatchMatrix(g, options);  // brute-force copy
  la::ScoreStore store{s};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  EdgeUpdate update{UpdateKind::kInsert, 1, 0};
  if (g.HasEdge(1, 0)) update = {UpdateKind::kDelete, 1, 0};

  auto seed = ComputeUpdateSeed(q, store, update, options);
  ASSERT_TRUE(seed.ok());
  auto m = IncUsrAuxiliaryM(q, store, update, options);
  ASSERT_TRUE(m.ok());
  la::DenseMatrix delta = m->Transpose();  // ΔS = M_K + M_Kᵀ
  delta.AddScaled(1.0, m.value());

  // Build Q̃ and T densely.
  DynamicDiGraph g_new = g;
  Status applied = update.kind == UpdateKind::kInsert
                       ? g_new.AddEdge(update.src, update.dst)
                       : g_new.RemoveEdge(update.src, update.dst);
  ASSERT_TRUE(applied.ok());
  la::DenseMatrix q_new = graph::BuildTransition(g_new).ToDense();

  la::Vector u = seed->rank_one.u.ToDense();
  la::Vector z = s.Multiply(seed->rank_one.v.ToDense());
  la::Vector w = q.Multiply(z);
  w.Axpy(seed->gamma / 2.0, u);

  la::DenseMatrix rhs =
      la::Multiply(la::Multiply(q_new, delta), q_new.Transpose());
  rhs.Scale(options.damping);
  rhs.AddOuterProduct(options.damping, u, w);
  rhs.AddOuterProduct(options.damping, w, u);
  EXPECT_LT(la::MaxAbsDiff(delta, rhs), 1e-9);
}

TEST(Theorem4, UntouchedPairsAreExactlyUnchanged) {
  // Inc-SR must leave every node-pair outside the affected areas
  // bit-identical (not merely close): compare against a copy.
  DynamicDiGraph g(9);
  // Two weakly-linked communities: updates inside one must not perturb
  // score entries private to the other.
  for (auto [s, d] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 0}, {0, 2},           // community A {0,1,2}
           {4, 5}, {5, 6}, {6, 4}, {4, 6}, {6, 5}})  // community B {4,5,6}
  {
    INCSR_CHECK(g.AddEdge(s, d).ok(), "edge");
  }
  SimRankOptions options = Converged();
  la::DenseMatrix s_before = simrank::BatchMatrix(g, options);
  la::ScoreStore s{s_before};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  IncSrEngine engine(options);

  // Insert inside community A.
  ASSERT_TRUE(
      engine.ApplyUpdate({UpdateKind::kInsert, 1, 0}, &g, &q, &s).ok());
  // Pairs fully inside community B are untouched, bitwise.
  for (int a : {4, 5, 6}) {
    for (int b : {4, 5, 6}) {
      EXPECT_EQ(s(a, b), s_before(a, b)) << a << "," << b;
    }
  }
  // Isolated nodes (3, 7, 8) are untouched too.
  for (int a : {3, 7, 8}) {
    for (std::size_t b = 0; b < 9; ++b) {
      EXPECT_EQ(s(a, b), s_before(a, b)) << a << "," << b;
    }
  }
  // But something in community A did change.
  EXPECT_GT(la::MaxAbsDiff(s, s_before), 1e-6);
}

TEST(Theorem4, AffectedAreaShrinksWithLocality) {
  // A hub insertion touching many similar nodes affects more pairs than a
  // pendant insertion — sanity for the |AFF| metric itself.
  auto stream = graph::PreferentialCitation(
      {.num_nodes = 60, .mean_out_degree = 3.0, .seed = 10});
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph g = graph::MaterializeGraph(60, stream.value());
  SimRankOptions options;
  options.iterations = 10;
  la::ScoreStore s_work{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  IncSrEngine engine(options);
  Rng rng(4);
  auto insertion = graph::SampleInsertions(g, 1, &rng);
  ASSERT_TRUE(insertion.ok());
  ASSERT_TRUE(engine.ApplyUpdate(insertion.value()[0], &g, &q, &s_work).ok());
  const AffectedAreaStats& stats = engine.last_stats();
  EXPECT_GT(stats.PrunedFraction(), 0.0);
  EXPECT_LT(stats.AffectedFraction(), 1.0);
  EXPECT_EQ(stats.a_sizes.size(), 11u);
}

TEST(UpdateSeed, InvalidUpdatesAreRejectedWithContext) {
  DynamicDiGraph g = RandomGraph(8, 16, 21);
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  auto edges = g.Edges();
  ASSERT_FALSE(edges.empty());
  EdgeUpdate dup{UpdateKind::kInsert, edges[0].src, edges[0].dst};
  EXPECT_EQ(ComputeUpdateSeed(q, s, dup, options).status().code(),
            StatusCode::kAlreadyExists);

  EdgeUpdate missing{UpdateKind::kDelete, 0, 0};
  if (!g.HasEdge(0, 0)) {
    EXPECT_EQ(ComputeUpdateSeed(q, s, missing, options).status().code(),
              StatusCode::kNotFound);
  }
  EdgeUpdate oob{UpdateKind::kInsert, 0, 100};
  EXPECT_EQ(ComputeUpdateSeed(q, s, oob, options).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SelfLoops, IncrementalHandlesSelfLoopInsertion) {
  DynamicDiGraph g = RandomGraph(8, 18, 31);
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  ASSERT_FALSE(g.HasEdge(3, 3));
  ASSERT_TRUE(
      IncUsrApplyUpdate({UpdateKind::kInsert, 3, 3}, options, &g, &q, &s)
          .ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-9);
}

}  // namespace
}  // namespace incsr::core

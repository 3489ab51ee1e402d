// The paper's central claim, tested end-to-end: Inc-uSR (Algorithm 1) and
// Inc-SR (Algorithm 2) update SimRank exactly — after any unit update or
// sequence of updates, the maintained S equals the matrix-form batch
// recomputation on the new graph (run to the fixed point), and the pruned
// and unpruned algorithms agree with each other bit-for-bit in structure.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "core/inc_sr.h"
#include "core/inc_usr.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "simrank/batch_matrix.h"

namespace incsr {
namespace {

using core::DynamicSimRank;
using core::UpdateAlgorithm;
using graph::DynamicDiGraph;
using graph::EdgeUpdate;
using graph::UpdateKind;
using simrank::SimRankOptions;

// Converged options: K chosen so the truncation bound C^(K+1) < 1e-13.
SimRankOptions Converged(double damping = 0.6) {
  SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

DynamicDiGraph SmallCitationGraph() {
  // 8-node graph with a mix of degrees, an isolated node (7), and a
  // zero-in-degree node (0).
  DynamicDiGraph g(8);
  for (auto [s, d] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 1}, {4, 2}, {4, 5},
           {5, 6}, {6, 4}, {1, 6}}) {
    INCSR_CHECK(g.AddEdge(s, d).ok(), "test graph edge (%d,%d)", s, d);
  }
  INCSR_CHECK(g.num_edges() == 10, "unexpected test graph size");
  return g;
}

TEST(IncUsrExactness, SingleInsertionMatchesBatch) {
  DynamicDiGraph g = SmallCitationGraph();
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  EdgeUpdate update{UpdateKind::kInsert, 3, 5};  // target in-degree 1 -> 2
  ASSERT_TRUE(core::IncUsrApplyUpdate(update, options, &g, &q, &s).ok());

  la::DenseMatrix expected = simrank::BatchMatrix(g, options);
  EXPECT_LT(la::MaxAbsDiff(s, expected), 1e-10);
}

TEST(IncUsrExactness, InsertionIntoZeroInDegreeTarget) {
  DynamicDiGraph g = SmallCitationGraph();
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  EdgeUpdate update{UpdateKind::kInsert, 2, 0};  // node 0 has d_j = 0
  ASSERT_TRUE(core::IncUsrApplyUpdate(update, options, &g, &q, &s).ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-10);
}

TEST(IncUsrExactness, DeletionMatchesBatch) {
  DynamicDiGraph g = SmallCitationGraph();
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  EdgeUpdate update{UpdateKind::kDelete, 0, 2};  // target in-degree 3 -> 2
  ASSERT_TRUE(core::IncUsrApplyUpdate(update, options, &g, &q, &s).ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-10);
}

TEST(IncUsrExactness, DeletionToZeroInDegree) {
  DynamicDiGraph g = SmallCitationGraph();
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  EdgeUpdate update{UpdateKind::kDelete, 0, 1};  // d_j = 2 ... first drop to 1
  ASSERT_TRUE(core::IncUsrApplyUpdate(update, options, &g, &q, &s).ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-10);

  update = {UpdateKind::kDelete, 3, 1};  // now d_j = 1 -> 0
  ASSERT_TRUE(core::IncUsrApplyUpdate(update, options, &g, &q, &s).ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-10);
}

TEST(IncSrExactness, MatchesIncUsrAndBatchOnUpdateSequence) {
  DynamicDiGraph g_pruned = SmallCitationGraph();
  DynamicDiGraph g_dense = SmallCitationGraph();
  SimRankOptions options = Converged();

  la::ScoreStore s_pruned{simrank::BatchMatrix(g_pruned, options)};
  la::ScoreStore s_dense{s_pruned.ToDense()};
  la::DynamicRowMatrix q_pruned = graph::BuildTransition(g_pruned);
  la::DynamicRowMatrix q_dense = graph::BuildTransition(g_dense);
  core::IncSrEngine engine(options);

  std::vector<EdgeUpdate> updates = {
      {UpdateKind::kInsert, 3, 5}, {UpdateKind::kInsert, 6, 2},
      {UpdateKind::kDelete, 0, 2}, {UpdateKind::kInsert, 5, 0},
      {UpdateKind::kDelete, 3, 5}, {UpdateKind::kInsert, 2, 4},
  };
  for (const EdgeUpdate& update : updates) {
    ASSERT_TRUE(
        engine.ApplyUpdate(update, &g_pruned, &q_pruned, &s_pruned).ok())
        << graph::ToString(update);
    ASSERT_TRUE(
        core::IncUsrApplyUpdate(update, options, &g_dense, &q_dense, &s_dense)
            .ok())
        << graph::ToString(update);
    // Pruning is lossless: the two engines agree essentially to rounding.
    EXPECT_LT(la::MaxAbsDiff(s_pruned, s_dense), 1e-12)
        << "after " << graph::ToString(update);
  }
  la::DenseMatrix expected = simrank::BatchMatrix(g_pruned, options);
  EXPECT_LT(la::MaxAbsDiff(s_pruned, expected), 1e-9);
}

struct RandomCase {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t edges;
  double damping;
};

class RandomGraphExactness : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomGraphExactness, MixedUpdatesStayExact) {
  const RandomCase param = GetParam();
  auto stream =
      graph::ErdosRenyiGnm(param.nodes, param.edges, param.seed);
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph g =
      graph::MaterializeGraph(param.nodes, stream.value());
  SimRankOptions options = Converged(param.damping);

  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  core::IncSrEngine engine(options);

  Rng rng(param.seed ^ 0xABCDEF);
  for (int round = 0; round < 8; ++round) {
    EdgeUpdate update;
    if (g.num_edges() > 0 && rng.NextBernoulli(0.4)) {
      auto deletions = graph::SampleDeletions(g, 1, &rng);
      ASSERT_TRUE(deletions.ok());
      update = deletions.value()[0];
    } else {
      auto insertions = graph::SampleInsertions(g, 1, &rng);
      ASSERT_TRUE(insertions.ok());
      update = insertions.value()[0];
    }
    ASSERT_TRUE(engine.ApplyUpdate(update, &g, &q, &s).ok())
        << graph::ToString(update);
  }
  la::DenseMatrix expected = simrank::BatchMatrix(g, options);
  EXPECT_LT(la::MaxAbsDiff(s, expected), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomGraphExactness,
    ::testing::Values(RandomCase{1, 12, 30, 0.6}, RandomCase{2, 20, 60, 0.6},
                      RandomCase{3, 20, 25, 0.8}, RandomCase{4, 30, 120, 0.6},
                      RandomCase{5, 16, 40, 0.4}, RandomCase{6, 25, 50, 0.7},
                      RandomCase{7, 40, 80, 0.6}, RandomCase{8, 10, 70, 0.6}));

TEST(DynamicSimRankApi, CreateInsertQueryDelete) {
  auto index_result = DynamicSimRank::Create(SmallCitationGraph(), Converged());
  ASSERT_TRUE(index_result.ok());
  DynamicSimRank& index = index_result.value();

  EXPECT_DOUBLE_EQ(index.Score(7, 7), 1.0 - index.options().damping);
  ASSERT_TRUE(index.InsertEdge(3, 5).ok());
  EXPECT_TRUE(index.graph().HasEdge(3, 5));
  ASSERT_TRUE(index.DeleteEdge(3, 5).ok());
  EXPECT_FALSE(index.graph().HasEdge(3, 5));

  // Insert + delete returns to the original scores (the update is exact in
  // both directions).
  auto fresh = DynamicSimRank::Create(SmallCitationGraph(), Converged());
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(la::MaxAbsDiff(index.scores(), fresh->scores()), 1e-9);
}

TEST(DynamicSimRankApi, RejectsInvalidUpdates) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), SimRankOptions{});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->InsertEdge(0, 1).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(index->DeleteEdge(3, 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(index->InsertEdge(0, 99).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index->DeleteEdge(-1, 0).code(), StatusCode::kOutOfRange);
  // Failed updates must not corrupt state.
  auto fresh = DynamicSimRank::Create(SmallCitationGraph(), SimRankOptions{});
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(la::MaxAbsDiff(index->scores(), fresh->scores()), 0.0 + 1e-15);
}

TEST(DynamicSimRankApi, BatchDecomposesIntoUnitUpdates) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), Converged());
  ASSERT_TRUE(index.ok());
  std::vector<EdgeUpdate> batch = {{UpdateKind::kInsert, 3, 5},
                                   {UpdateKind::kInsert, 7, 0},
                                   {UpdateKind::kDelete, 4, 5}};
  ASSERT_TRUE(index->ApplyBatch(batch).ok());

  DynamicDiGraph expected_graph = SmallCitationGraph();
  ASSERT_TRUE(graph::ApplyUpdates(batch, &expected_graph).ok());
  EXPECT_EQ(index->graph().Edges(), expected_graph.Edges());
  la::DenseMatrix expected = simrank::BatchMatrix(expected_graph, Converged());
  EXPECT_LT(la::MaxAbsDiff(index->scores(), expected), 1e-8);
}

TEST(DynamicSimRankApi, AddNodeExtension) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), Converged());
  ASSERT_TRUE(index.ok());
  graph::NodeId fresh = index->AddNode();
  EXPECT_EQ(fresh, 8);
  EXPECT_DOUBLE_EQ(index->Score(fresh, fresh), 1.0 - index->options().damping);
  EXPECT_DOUBLE_EQ(index->Score(fresh, 0), 0.0);

  // The grown index stays exact under further updates.
  ASSERT_TRUE(index->InsertEdge(0, fresh).ok());
  ASSERT_TRUE(index->InsertEdge(1, fresh).ok());
  la::DenseMatrix expected = simrank::BatchMatrix(index->graph(), Converged());
  EXPECT_LT(la::MaxAbsDiff(index->scores(), expected), 1e-9);

  // Growing a sparse isolated-node index keeps every row sparse, and the
  // grown index stays exact.
  auto isolated = DynamicSimRank::CreateIsolated(64, Converged());
  ASSERT_TRUE(isolated.ok());
  const graph::NodeId added = isolated->AddNode();
  EXPECT_EQ(added, 64);
  ASSERT_TRUE(isolated->InsertEdge(0, added).ok());
  ASSERT_TRUE(isolated->InsertEdge(1, added).ok());
  const la::ScoreStore& grown = isolated->scores();
  ASSERT_EQ(grown.rows(), 65u);
  for (std::size_t i = 0; i < grown.rows(); ++i) {
    EXPECT_TRUE(grown.RowIsSparse(i)) << "row " << i;
  }
  la::DenseMatrix truth = simrank::BatchMatrix(isolated->graph(), Converged());
  EXPECT_LT(la::MaxAbsDiff(grown, truth), 1e-9);
}

TEST(DynamicSimRankApi, TopKPairsOrdersByScore) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), SimRankOptions{});
  ASSERT_TRUE(index.ok());
  auto top = index->TopKPairs(5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t k = 1; k < top.size(); ++k) {
    EXPECT_GE(top[k - 1].score, top[k].score);
  }
  // Every returned pair must carry its true score and a < b.
  for (const auto& pair : top) {
    EXPECT_LT(pair.a, pair.b);
    EXPECT_DOUBLE_EQ(pair.score, index->Score(pair.a, pair.b));
  }
}

TEST(DynamicSimRankApi, TopKForExcludesQueryNode) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), SimRankOptions{});
  ASSERT_TRUE(index.ok());
  auto top = index->TopKFor(2, 3);
  ASSERT_EQ(top.size(), 3u);
  for (const auto& pair : top) {
    EXPECT_EQ(pair.a, 2);
    EXPECT_NE(pair.b, 2);
  }
  EXPECT_GE(top[0].score, top[1].score);
}

TEST(IncSrStats, AffectedAreaIsBoundedAndTracked) {
  auto index = DynamicSimRank::Create(SmallCitationGraph(), SimRankOptions{},
                                      UpdateAlgorithm::kIncSR);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index->InsertEdge(3, 5).ok());
  const core::AffectedAreaStats& stats = index->last_update_stats();
  ASSERT_EQ(stats.a_sizes.size(),
            static_cast<std::size_t>(index->options().iterations) + 1);
  EXPECT_EQ(stats.a_sizes[0], 1u);  // A₀ = {j}
  EXPECT_EQ(stats.num_nodes, 8u);
  EXPECT_GT(stats.PrunedFraction(), 0.0);
  EXPECT_LE(stats.AffectedFraction(), 1.0);
}

}  // namespace
}  // namespace incsr

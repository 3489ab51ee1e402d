// Tests for coalesced batch updates: the generalized rank-one row update
// must agree bitwise-closely with the unit-update decomposition and with
// batch recomputation, across insert-only, delete-only, and mixed groups.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/coalesced_update.h"
#include "core/dynamic_simrank.h"
#include "core/inc_sr.h"
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

DynamicDiGraph TestGraph(std::uint64_t seed = 3, std::size_t n = 16,
                         std::size_t m = 48) {
  auto stream = graph::ErdosRenyiGnm(n, m, seed);
  INCSR_CHECK(stream.ok(), "generator");
  return graph::MaterializeGraph(n, stream.value());
}

TEST(CoalesceByTarget, GroupsPreserveOrder) {
  std::vector<EdgeUpdate> batch = {
      {UpdateKind::kInsert, 1, 5}, {UpdateKind::kInsert, 2, 7},
      {UpdateKind::kInsert, 3, 5}, {UpdateKind::kDelete, 4, 5},
      {UpdateKind::kInsert, 0, 7},
  };
  auto groups = CoalesceByTarget(batch);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].target, 5);
  ASSERT_EQ(groups[0].changes.size(), 3u);
  EXPECT_EQ(groups[0].changes[1].src, 3);
  EXPECT_EQ(groups[0].changes[2].kind, UpdateKind::kDelete);
  EXPECT_EQ(groups[1].target, 7);
  EXPECT_EQ(groups[1].changes.size(), 2u);
}

TEST(ApplyRowUpdate, SingleChangeMatchesUnitPath) {
  // The generalized path (u = e_j, v = Δrow) and the paper-literal unit
  // path (Eqs. 27-28) must produce the same ΔS.
  DynamicDiGraph g1 = TestGraph();
  DynamicDiGraph g2 = TestGraph();
  SimRankOptions options = Converged();
  la::ScoreStore s1{simrank::BatchMatrix(g1, options)};
  la::ScoreStore s2{s1.ToDense()};
  la::DynamicRowMatrix q1 = graph::BuildTransition(g1);
  la::DynamicRowMatrix q2 = graph::BuildTransition(g2);
  IncSrEngine unit(options);
  IncSrEngine general(options);

  Rng rng(17);
  for (int round = 0; round < 6; ++round) {
    EdgeUpdate update;
    if (rng.NextBernoulli(0.5) && g1.num_edges() > 0) {
      auto del = graph::SampleDeletions(g1, 1, &rng);
      ASSERT_TRUE(del.ok());
      update = del.value()[0];
    } else {
      auto ins = graph::SampleInsertions(g1, 1, &rng);
      ASSERT_TRUE(ins.ok());
      update = ins.value()[0];
    }
    ASSERT_TRUE(unit.ApplyUpdate(update, &g1, &q1, &s1).ok());
    ASSERT_TRUE(general
                    .ApplyRowUpdate(update.dst, std::span(&update, 1), &g2,
                                    &q2, &s2)
                    .ok());
    EXPECT_LT(la::MaxAbsDiff(s1, s2), 1e-11) << graph::ToString(update);
    EXPECT_EQ(g1.Edges(), g2.Edges());
  }
}

TEST(ApplyRowUpdate, MultiInsertGroupMatchesBatchTruth) {
  DynamicDiGraph g = TestGraph(9);
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  IncSrEngine engine(options);

  // Three new in-edges for node 4 in one solve.
  std::vector<EdgeUpdate> changes;
  for (graph::NodeId src : {0, 7, 11}) {
    if (!g.HasEdge(src, 4)) changes.push_back({UpdateKind::kInsert, src, 4});
  }
  ASSERT_GE(changes.size(), 2u);
  ASSERT_TRUE(engine
                  .ApplyRowUpdate(4, std::span(changes.data(), changes.size()),
                                  &g, &q, &s)
                  .ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-9);
}

TEST(ApplyRowUpdate, MixedGroupIncludingNetZero) {
  DynamicDiGraph g = TestGraph(13);
  SimRankOptions options = Converged();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  IncSrEngine engine(options);

  // Insert (then delete) the same edge plus one real change: the engine
  // must see through the net-zero pair.
  Rng rng(5);
  auto ins = graph::SampleInsertions(g, 2, &rng);
  ASSERT_TRUE(ins.ok());
  graph::NodeId target = ins->at(0).dst;
  std::vector<EdgeUpdate> changes = {
      {UpdateKind::kInsert, ins->at(0).src, target},
      {UpdateKind::kDelete, ins->at(0).src, target},
  };
  // Plus a real deletion on the same target if one exists.
  auto in = g.InNeighbors(target);
  if (!in.empty()) {
    changes.push_back({UpdateKind::kDelete, in[0], target});
  }
  ASSERT_TRUE(engine
                  .ApplyRowUpdate(target,
                                  std::span(changes.data(), changes.size()),
                                  &g, &q, &s)
                  .ok());
  EXPECT_LT(la::MaxAbsDiff(s, simrank::BatchMatrix(g, options)), 1e-9);
}

TEST(ApplyRowUpdate, ValidationLeavesStateUntouched) {
  DynamicDiGraph g = TestGraph(21);
  SimRankOptions options = Converged();
  la::DenseMatrix s_before = simrank::BatchMatrix(g, options);
  la::ScoreStore s{s_before};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  DynamicDiGraph g_before = g;
  IncSrEngine engine(options);

  // Wrong target.
  EdgeUpdate wrong{UpdateKind::kInsert, 0, 3};
  EXPECT_EQ(engine.ApplyRowUpdate(5, std::span(&wrong, 1), &g, &q, &s).code(),
            StatusCode::kInvalidArgument);
  // Duplicate insert inside the group.
  auto in = g.InNeighbors(3);
  if (!in.empty()) {
    EdgeUpdate dup{UpdateKind::kInsert, in[0], 3};
    EXPECT_EQ(engine.ApplyRowUpdate(3, std::span(&dup, 1), &g, &q, &s).code(),
              StatusCode::kAlreadyExists);
  }
  // Absent delete.
  EdgeUpdate absent{UpdateKind::kDelete, 0, 0};
  if (!g.HasEdge(0, 0)) {
    EXPECT_EQ(
        engine.ApplyRowUpdate(0, std::span(&absent, 1), &g, &q, &s).code(),
        StatusCode::kNotFound);
  }
  // Out-of-range nodes.
  EdgeUpdate oob{UpdateKind::kInsert, 99, 3};
  EXPECT_EQ(engine.ApplyRowUpdate(3, std::span(&oob, 1), &g, &q, &s).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.ApplyRowUpdate(99, {}, &g, &q, &s).code(),
            StatusCode::kOutOfRange);

  EXPECT_EQ(g.Edges(), g_before.Edges());
  EXPECT_EQ(la::MaxAbsDiff(s, s_before), 0.0);
}

TEST(ApplyBatchCoalesced, WholeBatchMatchesSequentialAndTruth) {
  DynamicDiGraph g = TestGraph(31, 24, 70);
  DynamicDiGraph g_sequential = g;
  SimRankOptions options = Converged();
  la::DenseMatrix s0 = simrank::BatchMatrix(g, options);
  la::ScoreStore s_sequential{s0};
  la::DynamicRowMatrix q_sequential = graph::BuildTransition(g_sequential);

  // A batch clustered on few targets: a "new paper cites many references"
  // pattern plus some deletions.
  Rng rng(41);
  std::vector<EdgeUpdate> batch;
  for (graph::NodeId src : {1, 3, 5, 7, 9}) {
    if (!g.HasEdge(src, 20)) batch.push_back({UpdateKind::kInsert, src, 20});
  }
  for (graph::NodeId src : {2, 4, 6}) {
    if (!g.HasEdge(src, 21)) batch.push_back({UpdateKind::kInsert, src, 21});
  }
  auto deletions = graph::SampleDeletions(g, 3, &rng);
  ASSERT_TRUE(deletions.ok());
  for (const auto& d : deletions.value()) batch.push_back(d);
  // Fewer rank-one solves than unit updates.
  EXPECT_LT(CoalesceByTarget(batch).size(), batch.size());

  auto coalesced = DynamicSimRank::FromState(g, s0, options);
  ASSERT_TRUE(coalesced.ok());
  ASSERT_TRUE(coalesced->ApplyBatchCoalesced(batch).ok());

  IncSrEngine sequential(options);
  for (const auto& update : batch) {
    ASSERT_TRUE(
        sequential.ApplyUpdate(update, &g_sequential, &q_sequential,
                               &s_sequential)
            .ok());
  }
  EXPECT_EQ(coalesced->graph().Edges(), g_sequential.Edges());
  EXPECT_LT(la::MaxAbsDiff(coalesced->scores(), s_sequential), 1e-9);
  EXPECT_LT(la::MaxAbsDiff(coalesced->scores(),
                           simrank::BatchMatrix(coalesced->graph(), options)),
            1e-9);
}

TEST(DynamicSimRank, ApplyBatchMatchesCoalescedOnMixedRevisitingStream) {
  // A mixed insert/delete stream that REVISITS the same target node —
  // including an insert later deleted inside the same batch — must leave
  // ApplyBatch and ApplyBatchCoalesced in identical states (and both equal
  // to batch recomputation on the final graph).
  DynamicDiGraph g = TestGraph(61, 20, 60);
  SimRankOptions options = Converged();

  graph::NodeId target = -1;
  for (graph::NodeId node = 0;
       node < static_cast<graph::NodeId>(g.num_nodes()); ++node) {
    if (g.InDegree(node) >= 1) {
      target = node;
      break;
    }
  }
  ASSERT_GE(target, 0);
  auto in = g.InNeighbors(target);
  ASSERT_FALSE(in.empty());
  std::vector<EdgeUpdate> stream;
  graph::NodeId fresh_src = -1;
  for (graph::NodeId src = 0; src < static_cast<graph::NodeId>(g.num_nodes());
       ++src) {
    if (src != target && !g.HasEdge(src, target)) {
      fresh_src = src;
      break;
    }
  }
  ASSERT_GE(fresh_src, 0);
  stream.push_back({UpdateKind::kInsert, fresh_src, target});  // new in-edge
  // Interleave work on another target so the stream truly revisits.
  graph::NodeId other = 9;
  if (other == target) other = 10;
  if (!g.HasEdge(1, other) && 1 != other) {
    stream.push_back({UpdateKind::kInsert, 1, other});
  }
  stream.push_back({UpdateKind::kDelete, in[0], target});      // old in-edge
  stream.push_back({UpdateKind::kDelete, fresh_src, target});  // net zero
  Rng rng(77);
  auto extra = graph::SampleInsertions(g, 2, &rng);
  ASSERT_TRUE(extra.ok());
  for (const EdgeUpdate& u : extra.value()) {
    const bool dup_fresh = u.src == fresh_src && u.dst == target;
    const bool dup_other = u.src == 1 && u.dst == other;
    if (!dup_fresh && !dup_other) stream.push_back(u);
  }

  auto unit = DynamicSimRank::Create(g, options);
  auto coalesced = DynamicSimRank::Create(g, options);
  ASSERT_TRUE(unit.ok() && coalesced.ok());
  // Publish once so the batches' writes land in the touched-row delta.
  unit->mutable_score_store()->Publish();
  coalesced->mutable_score_store()->Publish();
  ASSERT_TRUE(unit->ApplyBatch(stream).ok());
  ASSERT_TRUE(coalesced->ApplyBatchCoalesced(stream).ok());

  EXPECT_EQ(unit->graph().Edges(), coalesced->graph().Edges());
  EXPECT_LT(la::MaxAbsDiff(unit->scores(), coalesced->scores()), 1e-9);
  EXPECT_LT(la::MaxAbsDiff(coalesced->scores(),
                           simrank::BatchMatrix(coalesced->graph(), options)),
            1e-9);

  // Both batch paths report the touched score rows the serving layer
  // invalidates its query cache from.
  EXPECT_FALSE(unit->AllScoreRowsTouched());
  EXPECT_FALSE(coalesced->AllScoreRowsTouched());
  EXPECT_FALSE(unit->TouchedScoreRows().empty());
  EXPECT_FALSE(coalesced->TouchedScoreRows().empty());
  for (std::int32_t node : coalesced->TouchedScoreRows()) {
    EXPECT_TRUE(coalesced->graph().HasNode(node));
  }
}

TEST(ApplyBatchCoalesced, StatsAccumulateAcrossGroups) {
  DynamicDiGraph g = TestGraph(51);
  SimRankOptions options;
  options.iterations = 8;
  auto index =
      DynamicSimRank::FromState(g, simrank::BatchMatrix(g, options), options);
  ASSERT_TRUE(index.ok());
  Rng rng(7);
  auto ins = graph::SampleInsertions(g, 4, &rng);
  ASSERT_TRUE(ins.ok());
  ASSERT_TRUE(index->ApplyBatchCoalesced(ins.value()).ok());
  const std::size_t groups = CoalesceByTarget(ins.value()).size();
  EXPECT_GE(groups, 1u);
  EXPECT_EQ(index->last_batch_stats().a_sizes.size(),
            groups * (static_cast<std::size_t>(options.iterations) + 1));
}

}  // namespace
}  // namespace incsr::core

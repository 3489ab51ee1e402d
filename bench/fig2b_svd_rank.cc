// Reproduces Fig. 2b: the target rank r required for a LOSSLESS SVD of
// the auxiliary matrix C_aux = Σ + Uᵀ·ΔQ·V, as a percentage of n, for
// |ΔE| ∈ {6K, 12K, 18K} (scaled) on DBLP and CITH. The paper's point:
// r/n is 80-95%, nowhere near "negligibly smaller than n", so Inc-SVD's
// O(r⁴·n²) update cannot be made accurate cheaply.
//
// Flags: bench_fig2b_svd_rank --help.
#include <cstdio>

#include "bench_common.h"
#include "incsr/incsr.h"
#include "la/svd.h"

namespace {

using namespace incsr;

void RunDataset(datasets::DatasetKind kind, double scale) {
  datasets::DatasetOptions data_options;
  data_options.scale = scale;
  auto series = datasets::MakeDataset(kind, data_options);
  INCSR_CHECK(series.ok(), "dataset: %s", series.status().ToString().c_str());
  const std::size_t n = series->num_nodes();

  graph::DynamicDiGraph g = series->GraphAt(0);
  la::DynamicRowMatrix q = graph::BuildTransition(g);

  bench::PrintHeader("Fig. 2b — " + datasets::DatasetName(kind) + " (scale " +
                     std::to_string(scale) + ", n = " + std::to_string(n) +
                     ")");

  // Lossless SVD of the old Q (dense Jacobi — this is exactly the
  // expensive precomputation the baseline requires).
  WallTimer svd_timer;
  auto factors = la::ComputeSvd(q.ToDense());
  INCSR_CHECK(factors.ok(), "svd");
  const std::size_t r0 = factors->rank();
  std::printf("lossless SVD of Q: rank %zu (%.1f%% of n), %.1f s\n", r0,
              100.0 * static_cast<double>(r0) / static_cast<double>(n),
              svd_timer.ElapsedSeconds());

  // |ΔE| points: the paper's 6K/12K/18K scaled by the dataset scale.
  auto full_delta = series->DeltaBetween(0, series->num_snapshots() - 1);
  std::puts("|dE|(scaled)   rank(C_aux)   % of n");
  for (int multiple = 1; multiple <= 3; ++multiple) {
    const std::size_t delta_edges = std::min(
        full_delta.size(),
        static_cast<std::size_t>(6000.0 * scale * multiple));
    // Accumulate C_aux = Σ + Uᵀ·ΔQ·V over the delta prefix, exactly as the
    // baseline's factor refresh does.
    graph::DynamicDiGraph g_work = g;
    la::DynamicRowMatrix q_work = q;
    const std::size_t r = factors->rank();
    la::DenseMatrix c_aux(r, r);
    for (std::size_t i = 0; i < r; ++i) c_aux(i, i) = factors->sigma[i];
    for (std::size_t k = 0; k < delta_edges; ++k) {
      auto rank_one = core::ComputeRankOneUpdate(q_work, full_delta[k]);
      INCSR_CHECK(rank_one.ok(), "rank one: %s",
                  rank_one.status().ToString().c_str());
      la::Vector ut_u = factors->u.MultiplyTranspose(rank_one->u.ToDense());
      la::Vector vt_v = factors->v.MultiplyTranspose(rank_one->v.ToDense());
      c_aux.AddOuterProduct(1.0, ut_u, vt_v);
      INCSR_CHECK(
          g_work.AddEdge(full_delta[k].src, full_delta[k].dst).ok(), "edge");
      graph::RefreshTransitionRow(g_work, full_delta[k].dst, &q_work);
    }
    auto aux_rank = la::NumericalRank(c_aux);
    INCSR_CHECK(aux_rank.ok(), "aux rank");
    std::printf("%8zu       %8zu     %6.1f%%\n", delta_edges,
                aux_rank.value(),
                100.0 * static_cast<double>(aux_rank.value()) /
                    static_cast<double>(n));
  }
}

}  // namespace

int main(int argc, char** argv) {
  double scale_mult = 1.0;
  FlagTable flags("bench_fig2b_svd_rank");
  bench::ScaleFlag(flags, &scale_mult, 0.05).ParseOrExit(argc, argv);
  RunDataset(datasets::DatasetKind::kDblp, 0.05 * scale_mult);
  RunDataset(datasets::DatasetKind::kCitH, 0.025 * scale_mult);
  std::puts(
      "\nShape check vs the paper: the lossless rank of C_aux is a large "
      "fraction of n\n(80-95% in the paper), so no negligibly-small target "
      "rank r makes Inc-SVD exact.");
  return 0;
}

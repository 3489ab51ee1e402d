// Reproduces Fig. 2e: the size of the "affected areas" in the SimRank
// update matrix as a percentage of n², for |ΔE| ∈ {6K, 12K, 18K} (scaled)
// on each dataset. Affected = node-pairs whose similarity actually
// changes over the whole delta (the complement of Fig. 2d's pruned set).
// The paper reports ~19-28% and a mild growth with |ΔE|.
//
// Flags: bench_fig2e_affected_area --help.
#include <cstdio>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct DatasetConfig {
  datasets::DatasetKind kind;
  double scale;
  int iterations;
};

void RunDataset(const DatasetConfig& config, double scale_mult) {
  const double scale = config.scale * scale_mult;
  datasets::DatasetOptions data_options;
  data_options.scale = scale;
  data_options.base_fraction = 0.7;  // leave room for an 18K-scaled delta
  auto series = datasets::MakeDataset(config.kind, data_options);
  INCSR_CHECK(series.ok(), "dataset");

  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = config.iterations;

  graph::DynamicDiGraph g0 = series->GraphAt(0);
  la::DenseMatrix s0 = simrank::BatchMatrix(g0, options);
  auto full_delta = series->DeltaBetween(0, series->num_snapshots() - 1);

  std::printf("%-6s (n = %zu):  ", datasets::DatasetName(config.kind).c_str(),
              series->num_nodes());
  for (int multiple = 1; multiple <= 3; ++multiple) {
    const std::size_t delta_edges =
        std::min(full_delta.size(),
                 static_cast<std::size_t>(6000.0 * scale * multiple));
    auto index = core::DynamicSimRank::FromState(
        g0, s0, options, core::UpdateAlgorithm::kIncSR);
    INCSR_CHECK(index.ok(), "index");
    for (std::size_t k = 0; k < delta_edges; ++k) {
      INCSR_CHECK(index->ApplyUpdate(full_delta[k]).ok(), "update");
    }
    double affected = bench::ChangedFraction(s0, index->scores());
    std::printf("|dE|=%5zu -> %5.1f%%   ", delta_edges, 100.0 * affected);
  }
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  double scale_mult = 1.0;
  FlagTable flags("bench_fig2e_affected_area");
  bench::ScaleFlag(flags, &scale_mult, 0.08).ParseOrExit(argc, argv);
  bench::PrintHeader("Fig. 2e — % of affected areas w.r.t. |dE|");
  RunDataset({datasets::DatasetKind::kDblp, 0.08, 15}, scale_mult);
  RunDataset({datasets::DatasetKind::kCitH, 0.05, 15}, scale_mult);
  RunDataset({datasets::DatasetKind::kYouTu, 0.03, 5}, scale_mult);
  std::puts(
      "\nShape check vs the paper's Fig. 2e: affected areas stay well below "
      "n^2 and grow\nmildly with |dE| — the headroom the pruning exploits.");
  return 0;
}

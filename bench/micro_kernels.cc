// google-benchmark micro-suite over the kernels behind the paper's
// complexity claims:
//   - SpMV / sparse×dense (the O(d·n²) batch iteration building block),
//   - one batch SimRank iteration (matrix form vs partial sums),
//   - a full Inc-uSR unit update (O(K·n²) worst case, row-sparse in
//     practice) vs a full Inc-SR unit update (O(K(n·d + |AFF|))) — the
//     n-scaling of the two is the paper's Section V claim,
//   - the Theorem 1-3 seed computation (O(m + n)),
//   - Jacobi vs randomized SVD (the Inc-SVD precomputation).
#include <benchmark/benchmark.h>

#include "incsr/incsr.h"
#include "la/randomized_svd.h"

namespace {

using namespace incsr;

graph::DynamicDiGraph MakeGraph(std::size_t n, double degree,
                                std::uint64_t seed = 11) {
  // Clustered, like the real datasets: the Inc-SR vs Inc-uSR scaling
  // claim concerns graphs whose similarity structure HAS prunable zeros;
  // an unclustered small graph saturates S and measures only overhead
  // (a dense-reach artifact of small scale).
  auto stream = graph::EvolvingLinkage(
      {.num_nodes = n,
       .num_edges = static_cast<std::size_t>(degree * static_cast<double>(n)),
       .num_communities = std::max<std::size_t>(1, n / 65),
       .intra_community_prob = 1.0,
       .seed = seed});
  INCSR_CHECK(stream.ok(), "generator");
  return graph::MaterializeGraph(n, stream.value());
}

simrank::SimRankOptions Options() {
  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 15;
  return options;
}

void BM_SpMV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  la::Vector x(n, 1.0);
  for (auto _ : state) {
    la::Vector y = q.Multiply(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(q.nnz()));
}
BENCHMARK(BM_SpMV)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_BatchMatrixIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  simrank::SimRankOptions options = Options();
  options.iterations = 1;
  for (auto _ : state) {
    la::DenseMatrix s = simrank::BatchMatrixFromTransition(q, options);
    benchmark::DoNotOptimize(s.RowPtr(0));
  }
}
BENCHMARK(BM_BatchMatrixIteration)->Arg(500)->Arg(1000)->Arg(2000);

void BM_BatchPartialSumsIteration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  simrank::SimRankOptions options = Options();
  options.iterations = 1;
  for (auto _ : state) {
    la::DenseMatrix s = simrank::BatchPartialSums(g, options);
    benchmark::DoNotOptimize(s.RowPtr(0));
  }
}
BENCHMARK(BM_BatchPartialSumsIteration)->Arg(500)->Arg(1000)->Arg(2000);

// One full unit update, dense (Inc-uSR). The per-n scaling exhibits the
// Θ(n²) dense-M accumulation.
void BM_IncUsrUnitUpdate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  simrank::SimRankOptions options = Options();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    auto ins = graph::SampleInsertions(g, 1, &rng);
    INCSR_CHECK(ins.ok(), "sample");
    state.ResumeTiming();
    INCSR_CHECK(
        core::IncUsrApplyUpdate(ins.value()[0], options, &g, &q, &s).ok(),
        "update");
  }
}
BENCHMARK(BM_IncUsrUnitUpdate)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

// Before/after of the seed-scan memory-layout fix on the COW ScoreStore
// the serving path uses. The old ComputeSparseSeed walked column i via
// s(y, i): one row resolve per element and a stride-n walk over the
// n×n payload. The fix reads the SYMMETRIC row i instead — a single
// contiguous resolve. These two kernels isolate exactly that access
// pattern (same data, same reduction, only the layout differs).
void BM_SeedColumnScanStrided(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = dense.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = rng.NextDouble();
  }
  la::ScoreStore store(std::move(dense));
  const std::size_t i = n / 2;
  for (auto _ : state) {
    double sum = 0.0;
    for (std::size_t y = 0; y < n; ++y) sum += store(y, i);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeedColumnScanStrided)->Arg(1000)->Arg(4000);

void BM_SeedColumnScanSymmetricRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = dense.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = rng.NextDouble();
  }
  la::ScoreStore store(std::move(dense));
  const std::size_t i = n / 2;
  la::Vector scratch;  // untouched: every row is dense
  for (auto _ : state) {
    const double* row = store.ReadRow(i, &scratch);
    double sum = 0.0;
    for (std::size_t y = 0; y < n; ++y) sum += row[y];
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SeedColumnScanSymmetricRow)->Arg(1000)->Arg(4000);

// One full unit update, pruned (Inc-SR), through the COW ScoreStore at a
// given thread count — the serving applier's exact write path. Scaling
// is sub-quadratic in n — the paper's O(K(n·d + |AFF|)). Args: {n,
// threads}.
void BM_IncSrUnitUpdateThreads(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  simrank::SimRankOptions options = Options();
  options.num_threads = static_cast<int>(state.range(1));
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  core::IncSrEngine engine(options);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    auto ins = graph::SampleInsertions(g, 1, &rng);
    INCSR_CHECK(ins.ok(), "sample");
    state.ResumeTiming();
    INCSR_CHECK(engine.ApplyUpdate(ins.value()[0], &g, &q, &s).ok(),
                "update");
  }
}
BENCHMARK(BM_IncSrUnitUpdateThreads)
    ->Args({500, 1})
    ->Args({1000, 1})
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({4000, 1})
    ->Args({4000, 4});

void BM_UpdateSeed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  simrank::SimRankOptions options = Options();
  la::ScoreStore s{simrank::BatchMatrix(g, options)};
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  Rng rng(5);
  auto ins = graph::SampleInsertions(g, 1, &rng);
  INCSR_CHECK(ins.ok(), "sample");
  for (auto _ : state) {
    auto seed = core::ComputeUpdateSeed(q, s, ins.value()[0], options);
    INCSR_CHECK(seed.ok(), "seed");
    benchmark::DoNotOptimize(seed->theta.data());
  }
}
BENCHMARK(BM_UpdateSeed)->Arg(1000)->Arg(4000);

void BM_JacobiSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  la::DenseMatrix q = graph::BuildTransitionCsr(g).ToDense();
  for (auto _ : state) {
    auto svd = la::ComputeSvd(q);
    INCSR_CHECK(svd.ok(), "svd");
    benchmark::DoNotOptimize(svd->sigma.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_RandomizedSvdRank5(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  graph::DynamicDiGraph g = MakeGraph(n, 8.0);
  la::CsrMatrix q = graph::BuildTransitionCsr(g);
  for (auto _ : state) {
    auto svd = la::ComputeRandomizedSvd(q, {.rank = 5});
    INCSR_CHECK(svd.ok(), "svd");
    benchmark::DoNotOptimize(svd->sigma.data());
  }
}
BENCHMARK(BM_RandomizedSvdRank5)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

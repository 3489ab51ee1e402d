// Ablation for the paper's Section V-A design choice: exploiting the
// rank-one structure of C·u·wᵀ to advance the Sylvester series for M with
// two auxiliary VECTORS (matrix-vector + vector-vector work only) versus
// the conventional MATRIX iteration
//     M₀ = C·u·wᵀ,  M_{k+1} = M₀ + C·Q̃·M_k·Q̃ᵀ,
// which pays two sparse×dense matrix products per iteration. Same K, same
// result; the vector trick should win by roughly the graph's average
// degree d (each dense product costs O(m·n) = O(d·n²) vs the trick's
// O(m + n²) per iteration).
#include <benchmark/benchmark.h>

#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct Fixture {
  graph::DynamicDiGraph g;
  simrank::SimRankOptions options;
  la::ScoreStore s;
  la::DynamicRowMatrix q;
  graph::EdgeUpdate update;
};

Fixture MakeFixture(std::size_t n) {
  auto stream = graph::EvolvingLinkage(
      {.num_nodes = n, .num_edges = 8 * n, .seed = 17});
  INCSR_CHECK(stream.ok(), "generator");
  Fixture f{graph::MaterializeGraph(n, stream.value()), {}, {}, {}, {}};
  f.options.damping = 0.6;
  f.options.iterations = 15;
  f.s = la::ScoreStore(simrank::BatchMatrix(f.g, f.options));
  f.q = graph::BuildTransition(f.g);
  Rng rng(23);
  auto ins = graph::SampleInsertions(f.g, 1, &rng);
  INCSR_CHECK(ins.ok(), "sample");
  f.update = ins.value()[0];
  return f;
}

// The paper's trick (Algorithm 1): vectors ξ, η only.
void BM_RankOneVectorTrick(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto m = core::IncUsrAuxiliaryM(f.q, f.s, f.update, f.options);
    INCSR_CHECK(m.ok(), "aux");
    benchmark::DoNotOptimize(m->RowPtr(0));
  }
}
BENCHMARK(BM_RankOneVectorTrick)
    ->Arg(400)
    ->Arg(800)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

// The conventional alternative: iterate M with matrix-matrix products.
void BM_NaiveMatrixIteration(benchmark::State& state) {
  Fixture f = MakeFixture(static_cast<std::size_t>(state.range(0)));
  // Assemble Q̃ and the rank-one forcing term C·u·wᵀ once (untimed).
  auto seed = core::ComputeUpdateSeed(f.q, f.s, f.update, f.options);
  INCSR_CHECK(seed.ok(), "seed");
  graph::DynamicDiGraph g_new = f.g;
  INCSR_CHECK(g_new.AddEdge(f.update.src, f.update.dst).ok(), "edge");
  la::CsrMatrix q_new = graph::BuildTransitionCsr(g_new);
  const std::size_t n = f.g.num_nodes();
  la::Vector e_j = la::Vector::Basis(n, static_cast<std::size_t>(f.update.dst));
  la::DenseMatrix m0(n, n);
  m0.AddOuterProduct(f.options.damping, e_j, seed->theta);

  for (auto _ : state) {
    la::DenseMatrix m = m0;
    for (int k = 0; k < f.options.iterations; ++k) {
      la::DenseMatrix qm = q_new.MultiplyDense(m);             // Q̃·M
      la::DenseMatrix qmq = q_new.MultiplyDense(qm.Transpose());  // Q̃·(Q̃M)ᵀ
      la::DenseMatrix next = qmq.Transpose();                  // Q̃·M·Q̃ᵀ
      next.Scale(f.options.damping);
      next.AddScaled(1.0, m0);
      m = std::move(next);
    }
    benchmark::DoNotOptimize(m.RowPtr(0));
  }
}
BENCHMARK(BM_NaiveMatrixIteration)
    ->Arg(400)
    ->Arg(800)
    ->Arg(1600)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

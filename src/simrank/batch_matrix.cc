#include "simrank/batch_matrix.h"

#include <utility>

#include "common/scheduler.h"
#include "graph/transition.h"

namespace incsr::simrank {

la::DenseMatrix BatchMatrixFromTransition(const la::CsrMatrix& q,
                                          const SimRankOptions& options) {
  INCSR_CHECK(q.rows() == q.cols(), "BatchMatrix: Q must be square");
  const std::size_t n = q.rows();
  const double c = options.damping;
  const std::size_t threads = Scheduler::ResolveNumThreads(options.num_threads);
  // Every pass writes disjoint output rows, each by the serial per-element
  // sequence, so the row split never changes a bit. Two rows per chunk at
  // least: a row is O(n·d) work, enough to amortize a worker wake.
  const auto parallel_rows = [n, threads](const Scheduler::RangeFn& fn) {
    Scheduler::Global().ParallelFor(0, n, /*grain=*/2, threads, fn);
  };
  la::DenseMatrix s(n, n);
  s.AddScaledIdentity(1.0 - c);
  la::DenseMatrix t(n, n);
  for (int k = 0; k < options.iterations; ++k) {
    // S ← C·Q·S·Qᵀ + (1−C)·I, computed as C·Q·(Q·S)ᵀ + (1−C)·I.
    // S is symmetric throughout (up to rounding), so Sᵀ reuses S.
    parallel_rows([&](std::size_t lo, std::size_t hi) {
      q.MultiplyDenseRows(s, &t, lo, hi);  // t = Q·S
    });
    parallel_rows([&](std::size_t lo, std::size_t hi) {
      t.TransposeRows(&s, lo, hi);  // s = (Q·S)ᵀ = Sᵀ·Qᵀ; old S is dead
    });
    parallel_rows([&](std::size_t lo, std::size_t hi) {
      q.MultiplyDenseRows(s, &t, lo, hi);  // t = Q·Sᵀ·Qᵀ = Q·S·Qᵀ
      // Scale, then add the diagonal — two steps, as DenseMatrix::Scale
      // and AddScaledIdentity do: a fused c·x + 0.0 would turn -0.0 into
      // +0.0 off the diagonal.
      for (std::size_t i = lo; i < hi; ++i) {
        double* __restrict row = t.RowPtr(i);
        for (std::size_t j = 0; j < n; ++j) row[j] *= c;
        row[i] += 1.0 - c;
      }
    });
    std::swap(s, t);
  }
  return s;
}

la::DenseMatrix BatchMatrix(const graph::DynamicDiGraph& graph,
                            const SimRankOptions& options) {
  return BatchMatrixFromTransition(graph::BuildTransitionCsr(graph), options);
}

}  // namespace incsr::simrank

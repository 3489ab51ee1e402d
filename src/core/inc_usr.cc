#include "core/inc_usr.h"

#include <algorithm>
#include <vector>

#include "common/scheduler.h"
#include "graph/transition.h"
#include "la/row_writer.h"
#include "obs/trace.h"

namespace incsr::core {

Result<la::DenseMatrix> IncUsrAuxiliaryM(
    const la::DynamicRowMatrix& q, const la::ScoreStore& s,
    const graph::EdgeUpdate& update, const simrank::SimRankOptions& options) {
  Result<UpdateSeed> seed = [&]() -> Result<UpdateSeed> {
    TRACE_SCOPE(kKernelSeed);
    return ComputeUpdateSeed(q, s, update, options);
  }();
  if (!seed.ok()) return seed.status();

  const std::size_t n = q.rows();
  const std::size_t j = static_cast<std::size_t>(update.dst);
  const double c = options.damping;
  const la::SparseVector& u = seed->rank_one.u;
  const la::SparseVector& v = seed->rank_one.v;

  // ξ₀ = C·e_j, η₀ = θ, M₀ = ξ₀·η₀ᵀ (Algorithm 1, line 13). The outer
  // products — the only O(n²) work per iteration — run row-parallel on
  // the shared scheduler (same chunk-geometry determinism rules as the Inc-SR
  // kernels, so M — and therefore S — is bitwise identical at any thread
  // count).
  const std::size_t threads = Scheduler::ResolveNumThreads(options.num_threads);
  la::Vector xi(n);
  xi[j] = c;
  la::Vector eta = seed->theta;
  la::DenseMatrix m(n, n);
  m.AddOuterProduct(1.0, xi, eta, threads);

  for (int k = 0; k < options.iterations; ++k) {
    TRACE_SCOPE_ARG(kKernelExpand, k);
    // ξ ← C·(Q·ξ + (vᵀξ)·u); η ← Q·η + (vᵀη)·u   (lines 15-16). The
    // (vᵀ·)·u correction realizes Q̃ = Q + u·vᵀ without materializing Q̃.
    double v_dot_xi = v.DotDense(xi);
    la::Vector xi_next = q.Multiply(xi);
    u.AxpyInto(v_dot_xi, &xi_next);
    xi_next.Scale(c);

    double v_dot_eta = v.DotDense(eta);
    la::Vector eta_next = q.Multiply(eta);
    u.AxpyInto(v_dot_eta, &eta_next);

    m.AddOuterProduct(1.0, xi_next, eta_next, threads);  // line 17
    xi = std::move(xi_next);
    eta = std::move(eta_next);
  }
  return m;
}

Status IncUsrApplyUpdate(const graph::EdgeUpdate& update,
                         const simrank::SimRankOptions& options,
                         graph::DynamicDiGraph* graph,
                         la::DynamicRowMatrix* q, la::ScoreStore* s) {
  INCSR_CHECK(graph != nullptr && q != nullptr && s != nullptr,
              "IncUsrApplyUpdate: null output");
  Result<la::DenseMatrix> m = IncUsrAuxiliaryM(*q, *s, update, options);
  if (!m.ok()) return m.status();
  // The seed validated the update against Q; mirror it on the graph.
  Status applied = update.kind == graph::UpdateKind::kInsert
                       ? graph->AddEdge(update.src, update.dst)
                       : graph->RemoveEdge(update.src, update.dst);
  if (!applied.ok()) return applied;
  graph::RefreshTransitionRow(*graph, update.dst, q);
  // S += M + Mᵀ without materializing the transpose: per row, the M-term
  // row pass then a blocked pass for the Mᵀ term (cache-friendly tiles).
  // Inc-uSR has no pruning, so the update touches every COLUMN of every
  // row — this kernel is inherently dense. Write sessions are opened
  // serially (BeginWriteRow is writer-thread-only); each worker then
  // takes its rows' flat pointers via RowWriter::Dense(), which for a
  // sparse-backed row gathers into a writer-LOCAL buffer (safe in the
  // parallel region — only immutable base blocks and writer state are
  // touched) and commits as a counted write-path spill. Rows are disjoint
  // and each keeps the serial M-then-Mᵀ write order, so the result is
  // bitwise identical at any thread count.
  TRACE_SCOPE_ARG(kKernelScatter, s->rows());
  const std::size_t n = s->rows();
  const std::size_t threads = Scheduler::ResolveNumThreads(options.num_threads);
  std::vector<la::RowWriter> writers(n);
  for (std::size_t i = 0; i < n; ++i) s->BeginWriteRow(i, &writers[i]);
  constexpr std::size_t kBlock = 64;
  Scheduler::Global().ParallelFor(
      0, n, kBlock, threads,
      [&writers, &m, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          double* __restrict row = writers[i].Dense();
          const double* mi = m->RowPtr(i);
          for (std::size_t j = 0; j < n; ++j) row[j] += mi[j];
        }
        for (std::size_t ib = lo; ib < hi; ib += kBlock) {
          const std::size_t imax = std::min(hi, ib + kBlock);
          for (std::size_t jb = 0; jb < n; jb += kBlock) {
            const std::size_t jmax = std::min(n, jb + kBlock);
            for (std::size_t i = ib; i < imax; ++i) {
              double* row = writers[i].Dense();
              for (std::size_t j = jb; j < jmax; ++j) {
                row[j] += (*m)(j, i);
              }
            }
          }
        }
      });
  for (std::size_t i = 0; i < n; ++i) s->CommitWriteRow(&writers[i]);
  return Status::OK();
}

}  // namespace incsr::core

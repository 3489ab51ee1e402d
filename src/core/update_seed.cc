#include "core/update_seed.h"

#include <algorithm>

namespace incsr::core {

namespace {

// S is symmetric, so column i is row i: one contiguous row resolve
// instead of n strided probes, one row lookup each.
la::Vector SymmetricColumn(const la::ScoreStore& s, std::size_t i) {
  la::Vector out(s.cols());
  // ReadRow either hands back the contiguous dense payload (copied below)
  // or gathers a sparse-backed row straight into `out` and returns its
  // buffer, in which case the copy is skipped.
  const double* row = s.ReadRow(i, &out);
  if (row != out.data()) std::copy(row, row + s.cols(), out.data());
  return out;
}

}  // namespace

Result<UpdateSeed> ComputeUpdateSeed(const la::DynamicRowMatrix& q,
                                     const la::ScoreStore& s,
                                     const graph::EdgeUpdate& update,
                                     const simrank::SimRankOptions& options) {
  if (s.rows() != q.rows() || s.cols() != q.cols()) {
    return Status::InvalidArgument("ComputeUpdateSeed: S/Q shape mismatch");
  }
  Result<RankOneUpdate> rank_one = ComputeRankOneUpdate(q, update);
  if (!rank_one.ok()) return rank_one.status();

  const std::size_t i = static_cast<std::size_t>(update.src);
  const std::size_t j = static_cast<std::size_t>(update.dst);
  const double c = options.damping;
  const std::size_t dj = rank_one->old_in_degree;

  // w := Q · [S]_{·,i}   (Algorithm 1, line 3).
  la::Vector w = q.Multiply(SymmetricColumn(s, i));

  UpdateSeed seed;
  seed.rank_one = std::move(rank_one).value();

  const bool trivial_degree =
      (update.kind == graph::UpdateKind::kInsert && dj == 0) ||
      (update.kind == graph::UpdateKind::kDelete && dj == 1);
  // γ (Eq. 29); in the d_j = 0 / d_j = 1 cases it degenerates to [S]_{i,i}
  // (Algorithm 1 uses that form directly).
  seed.gamma = trivial_degree
                   ? s(i, i)
                   : s(i, i) + s(j, j) / c - 2.0 * w[j] - 1.0 / c + 1.0;

  if (update.kind == graph::UpdateKind::kInsert) {
    if (dj == 0) {
      // θ = w + ½[S]_{i,i}·e_j
      seed.theta = std::move(w);
      seed.theta[j] += 0.5 * s(i, i);
    } else {
      // θ = (w − (1/C)[S]_{·,j} + (γ/(2(d_j+1)) + 1/C − 1)·e_j) / (d_j+1)
      const double inv = 1.0 / static_cast<double>(dj + 1);
      seed.theta = std::move(w);
      seed.theta.Axpy(-1.0 / c, SymmetricColumn(s, j));
      seed.theta[j] += 0.5 * seed.gamma * inv + 1.0 / c - 1.0;
      seed.theta.Scale(inv);
    }
  } else {
    if (dj == 1) {
      // θ = ½[S]_{i,i}·e_j − w
      seed.theta = std::move(w);
      seed.theta.Scale(-1.0);
      seed.theta[j] += 0.5 * s(i, i);
    } else {
      // θ = ((1/C)[S]_{·,j} − w + (γ/(2(d_j−1)) − 1/C + 1)·e_j) / (d_j−1)
      const double inv = 1.0 / static_cast<double>(dj - 1);
      seed.theta = std::move(w);
      seed.theta.Scale(-1.0);
      seed.theta.Axpy(1.0 / c, SymmetricColumn(s, j));
      seed.theta[j] += 0.5 * seed.gamma * inv - 1.0 / c + 1.0;
      seed.theta.Scale(inv);
    }
  }
  return seed;
}

}  // namespace incsr::core

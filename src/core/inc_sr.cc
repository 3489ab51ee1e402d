#include "core/inc_sr.h"

#include <algorithm>
#include <iterator>

#include "graph/transition.h"
#include "obs/trace.h"

namespace incsr::core {

namespace {

// Chunk geometry for the merged-accumulator expansion kernels. These are
// deliberately functions of the SUPPORT SIZE only — never of the thread
// count, and never of the ambient node count n — so the FP merge tree,
// and therefore S, is bitwise identical at any parallelism (including
// serial) AND invariant to the ambient id space: a shard-local run over a
// component (src/shard/) performs the same additions in the same order as
// the corresponding subsequence of a full-graph run. Dense scans
// therefore gather their nonzero sources first and chunk the gathered
// list, not [0, n).
constexpr std::size_t kSparseExpandGrain = 128;  // support entries per chunk
constexpr std::size_t kMaxExpandChunks = 16;     // caps accumulator memory

// Minimum useful work (fused multiply-adds) per scatter chunk; rows are
// written disjointly, so scatter geometry needs no determinism.
constexpr std::size_t kScatterGrainFlops = 4096;

}  // namespace

void IncSrEngine::Workspace::EnsureSize(std::size_t n) {
  if (values.size() < n) {
    values.Resize(n);
    seen.resize(n, 0);
  }
}

void IncSrEngine::Workspace::Clear() {
  for (std::int32_t idx : indices) {
    values[static_cast<std::size_t>(idx)] = 0.0;
    seen[static_cast<std::size_t>(idx)] = 0;
  }
  indices.clear();
}

void IncSrEngine::Workspace::Accumulate(std::int32_t index, double delta) {
  auto i = static_cast<std::size_t>(index);
  if (!seen[i]) {
    seen[i] = 1;
    indices.push_back(index);
  }
  values[i] += delta;
}

void IncSrEngine::Workspace::AddDenseRow(double coeff, const double* row,
                                         std::size_t n) {
  if (indices.size() < n) {  // not every index touched yet
    for (std::size_t y = 0; y < n; ++y) {
      if (!seen[y]) {
        seen[y] = 1;
        indices.push_back(static_cast<std::int32_t>(y));
      }
    }
  }
  double* __restrict acc = values.data();
  for (std::size_t y = 0; y < n; ++y) acc[y] += coeff * row[y];
}

void IncSrEngine::Workspace::MergeFrom(const Workspace& other) {
  for (std::int32_t idx : other.indices) {
    Accumulate(idx, other.values[static_cast<std::size_t>(idx)]);
  }
}

void IncSrEngine::Workspace::SortIndices() {
  // A support covering a good share of the index space is cheaper to read
  // back off the membership flags, already ascending, than to sort.
  if (indices.size() * 32 < seen.size()) {
    std::sort(indices.begin(), indices.end());
    return;
  }
  const std::size_t count = indices.size();
  indices.clear();
  for (std::size_t i = 0; indices.size() < count; ++i) {
    if (seen[i]) indices.push_back(static_cast<std::int32_t>(i));
  }
}

void IncSrEngine::RunChunkedExpansion(std::size_t count, std::size_t n,
                                      std::size_t grain,
                                      const ExpandFn& expand,
                                      Workspace* out) {
  const std::size_t chunks =
      Scheduler::PlanChunks(count, grain, kMaxExpandChunks);
  if (chunks <= 1) {
    if (count > 0) expand(out, 0, count);
    return;
  }
  if (chunk_ws_.size() < chunks) chunk_ws_.resize(chunks);
  Scheduler::Global().ParallelForChunks(
      0, count, chunks, threads_,
      [this, n, &expand](std::size_t c, std::size_t lo, std::size_t hi) {
        Workspace* ws = &chunk_ws_[c];
        ws->EnsureSize(n);
        ws->Clear();
        expand(ws, lo, hi);
      });
  // Merge only chunks the scheduler actually invoked: ParallelForChunks skips
  // empty trailing chunks (possible if the plan ever over-chunks), whose
  // workspaces would still hold a PREVIOUS update's subtotals.
  const std::size_t chunk_size = (count + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (c * chunk_size >= count) break;
    out->MergeFrom(chunk_ws_[c]);
  }
}

void IncSrEngine::GatherNonzeros(const la::ScoreStore& s, std::size_t row) {
  expand_sources_.clear();
  expand_weights_.clear();
  s.ForEachStored(row, [this](std::size_t col, double value) {
    if (value == 0.0) return;  // a stored −0.0 is a zero too
    expand_sources_.push_back(static_cast<std::int32_t>(col));
    expand_weights_.push_back(value);
  });
}

void IncSrEngine::MultiplyQGathered(const graph::DynamicDiGraph& graph,
                                    std::size_t n, Workspace* out) {
  RunChunkedExpansion(
      expand_sources_.size(), n, kSparseExpandGrain,
      [this, &graph](Workspace* ws, std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const double weight = expand_weights_[k];
          for (graph::NodeId a : graph.OutNeighbors(expand_sources_[k])) {
            ws->Accumulate(a, weight);
          }
        }
      },
      out);
  for (std::int32_t a : out->indices) {
    const std::size_t deg = graph.InDegree(a);
    INCSR_DCHECK(deg > 0, "node %d reached without in-edges", a);
    out->values[static_cast<std::size_t>(a)] /= static_cast<double>(deg);
  }
}

Status IncSrEngine::ComputeSparseSeed(const graph::EdgeUpdate& update,
                                      const graph::DynamicDiGraph& graph,
                                      const la::DynamicRowMatrix& q,
                                      const la::ScoreStore& s,
                                      RankOneUpdate* rank_one,
                                      Workspace* theta) {
  TRACE_SCOPE(kKernelSeed);
  Result<RankOneUpdate> decomposition = ComputeRankOneUpdate(q, update);
  if (!decomposition.ok()) return decomposition.status();
  *rank_one = std::move(decomposition).value();

  const std::size_t n = q.rows();
  const std::size_t i = static_cast<std::size_t>(update.src);
  const std::size_t j = static_cast<std::size_t>(update.dst);
  const double c = options_.damping;
  const std::size_t dj = rank_one->old_in_degree;
  theta->EnsureSize(n);
  theta->Clear();

  // S is symmetric, so the columns [S]_{·,i} and [S]_{·,j} the seed needs
  // are rows i and j, read through their stored entries: O(nnz) on a
  // sparse row instead of n probes. Caveat: ScatterOuter keeps S
  // symmetric only to rounding (entry (a,b) sums its two products in the
  // opposite order from (b,a)), so row-as-column can differ from the
  // true column in the last ulp — well inside the C^(K+1) accuracy
  // envelope, and deterministic: every run (any thread count, any shard
  // layout) reads the same bytes.
  const double s_ii = s(i, i);
  const double s_jj = s(j, j);

  // w = Q·[S]_{·,i} on its support: only rows a reachable by one OLD-graph
  // hop from T = {y : [S]_{y,i} ≠ 0} can be nonzero (these out-neighbor
  // hops are exactly the F₁ set of Eq. 38).
  GatherNonzeros(s, i);
  MultiplyQGathered(graph, n, theta);
  const double w_j = theta->seen[j] ? theta->values[j] : 0.0;

  const bool trivial_degree =
      (update.kind == graph::UpdateKind::kInsert && dj == 0) ||
      (update.kind == graph::UpdateKind::kDelete && dj == 1);
  const double gamma =
      trivial_degree ? s_ii
                     : s_ii + s_jj / c - 2.0 * w_j - 1.0 / c + 1.0;

  // Assemble θ in place over w (Eqs. 27-28), touching only B₀ =
  // supp(w) ∪ supp([S]_{·,j}) ∪ {j}; the [S]_{·,j} terms come in
  // ascending y, nonzero entries only.
  if (update.kind == graph::UpdateKind::kInsert) {
    if (dj == 0) {
      theta->Accumulate(update.dst, 0.5 * s_ii);
    } else {
      const double inv = 1.0 / static_cast<double>(dj + 1);
      for (std::int32_t idx : theta->indices) {
        theta->values[static_cast<std::size_t>(idx)] *= inv;
      }
      s.ForEachStored(j, [theta, inv, c](std::size_t y, double s_yj) {
        if (s_yj == 0.0) return;
        theta->Accumulate(static_cast<std::int32_t>(y), -inv / c * s_yj);
      });
      theta->Accumulate(update.dst,
                        inv * (0.5 * gamma * inv + 1.0 / c - 1.0));
    }
  } else {
    if (dj == 1) {
      for (std::int32_t idx : theta->indices) {
        theta->values[static_cast<std::size_t>(idx)] *= -1.0;
      }
      theta->Accumulate(update.dst, 0.5 * s_ii);
    } else {
      const double inv = 1.0 / static_cast<double>(dj - 1);
      for (std::int32_t idx : theta->indices) {
        theta->values[static_cast<std::size_t>(idx)] *= -inv;
      }
      s.ForEachStored(j, [theta, inv, c](std::size_t y, double s_yj) {
        if (s_yj == 0.0) return;
        theta->Accumulate(static_cast<std::int32_t>(y), inv / c * s_yj);
      });
      theta->Accumulate(update.dst,
                        inv * (0.5 * gamma * inv - 1.0 / c + 1.0));
    }
  }
  theta->SortIndices();
  return Status::OK();
}

void IncSrEngine::AdvanceSparse(const graph::DynamicDiGraph& new_graph,
                                double scale, const Workspace& cur,
                                Workspace* next) {
  TRACE_SCOPE_ARG(kKernelExpand, cur.indices.size());
  next->EnsureSize(cur.values.size());
  next->Clear();
  RunChunkedExpansion(
      cur.indices.size(), cur.values.size(), kSparseExpandGrain,
      [&new_graph, &cur](Workspace* ws, std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::int32_t b = cur.indices[k];
          const double xb = cur.values[static_cast<std::size_t>(b)];
          for (graph::NodeId a : new_graph.OutNeighbors(b)) {
            ws->Accumulate(a, xb);
          }
        }
      },
      next);
  for (std::int32_t a : next->indices) {
    const std::size_t deg = new_graph.InDegree(a);
    INCSR_DCHECK(deg > 0, "node %d reached without in-edges", a);
    next->values[static_cast<std::size_t>(a)] *=
        scale / static_cast<double>(deg);
  }
  next->SortIndices();
}

void IncSrEngine::ScatterOuter(const Workspace& xi, const Workspace& eta,
                               la::ScoreStore* s) {
  TRACE_SCOPE_ARG(kKernelScatter, xi.indices.size() + eta.indices.size());
  // S += ξ·ηᵀ + η·ξᵀ, row-parallel over supp(ξ) ∪ supp(η). Each touched
  // row gets its ξ-term writes and then its η-term writes — the exact
  // serial sequence — and rows are disjoint, so the result is bitwise
  // identical to the serial kernel at any thread count. A row's write
  // session opens at its first scatter of the update and stays open
  // across the K+1 scatters; CommitOpenSessions commits it once at the
  // end (nothing reads S in between). Sessions are opened serially:
  // BeginWriteRow may COW-clone a row and is writer-thread-only. Filling
  // a session (Add / the dense fast path) touches only writer-local state
  // plus immutable base blocks, so the workers stream safely. A
  // sparse-backed row accumulates (column, delta) pairs seeded from its
  // stored values — the same per-column FP sequence as writing through a
  // densified row, however many scatters feed it — and its one commit
  // index-merges them, so the row never leaves its tier.
  scatter_rows_.clear();
  std::set_union(xi.indices.begin(), xi.indices.end(), eta.indices.begin(),
                 eta.indices.end(), std::back_inserter(scatter_rows_));
  for (std::int32_t r : scatter_rows_) {
    std::int32_t& slot = row_slot_[static_cast<std::size_t>(r)];
    if (slot >= 0) continue;
    slot = static_cast<std::int32_t>(open_sessions_);
    if (scatter_writers_.size() == open_sessions_) {
      scatter_writers_.emplace_back();
    }
    s->BeginWriteRow(static_cast<std::size_t>(r),
                     &scatter_writers_[open_sessions_++]);
  }
  const std::size_t per_row = xi.indices.size() + eta.indices.size();
  const std::size_t grain = std::max<std::size_t>(
      1, kScatterGrainFlops / std::max<std::size_t>(per_row, 1));
  Scheduler::Global().ParallelFor(
      0, scatter_rows_.size(), grain, threads_,
      [this, &xi, &eta](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const auto r = static_cast<std::size_t>(scatter_rows_[k]);
          la::RowWriter& w =
              scatter_writers_[static_cast<std::size_t>(row_slot_[r])];
          if (w.is_dense()) {
            // Dense fast path: identical to the old flat-pointer kernel.
            double* __restrict row = w.Dense();
            if (xi.seen[r]) {
              const double xr = xi.values[r];
              for (std::int32_t b : eta.indices) {
                row[static_cast<std::size_t>(b)] +=
                    xr * eta.values[static_cast<std::size_t>(b)];
              }
            }
            if (eta.seen[r]) {
              const double er = eta.values[r];
              for (std::int32_t a : xi.indices) {
                row[static_cast<std::size_t>(a)] +=
                    er * xi.values[static_cast<std::size_t>(a)];
              }
            }
            continue;
          }
          // Sparse-native path: same deltas, same emission order.
          if (xi.seen[r]) {
            const double xr = xi.values[r];
            for (std::int32_t b : eta.indices) {
              w.Add(static_cast<std::size_t>(b),
                    xr * eta.values[static_cast<std::size_t>(b)]);
            }
          }
          if (eta.seen[r]) {
            const double er = eta.values[r];
            for (std::int32_t a : xi.indices) {
              w.Add(static_cast<std::size_t>(a),
                    er * xi.values[static_cast<std::size_t>(a)]);
            }
          }
        }
      });
}

void IncSrEngine::CommitOpenSessions(la::ScoreStore* s) {
  TRACE_SCOPE_ARG(kKernelScatter, open_sessions_);
  for (std::size_t k = 0; k < open_sessions_; ++k) {
    la::RowWriter& w = scatter_writers_[k];
    row_slot_[w.row()] = -1;
    s->CommitWriteRow(&w);
  }
  open_sessions_ = 0;
}

Status IncSrEngine::ApplyUpdate(const graph::EdgeUpdate& update,
                                graph::DynamicDiGraph* graph,
                                la::DynamicRowMatrix* q, la::ScoreStore* s) {
  INCSR_CHECK(graph != nullptr && q != nullptr && s != nullptr,
              "IncSrEngine::ApplyUpdate: null output");
  if (s->rows() != q->rows() || s->cols() != q->cols() ||
      graph->num_nodes() != q->rows()) {
    return Status::InvalidArgument("IncSrEngine: inconsistent G/Q/S shapes");
  }

  // Phase 1 (old state): Theorem 1 factors and the pruned seed θ on B₀.
  RankOneUpdate rank_one;
  INCSR_RETURN_IF_ERROR(
      ComputeSparseSeed(update, *graph, *q, *s, &rank_one, &eta_));

  // Phase 2: commit the edge change; Q̃ differs from Q in row j only.
  Status applied = update.kind == graph::UpdateKind::kInsert
                       ? graph->AddEdge(update.src, update.dst)
                       : graph->RemoveEdge(update.src, update.dst);
  if (!applied.ok()) return applied;
  graph::RefreshTransitionRow(*graph, update.dst, q);

  // Phase 3: pruned iterations (ξ₀ = C·e_j; η₀ = θ).
  RunPrunedIterations(update.dst, *graph, s);
  return Status::OK();
}

void IncSrEngine::RunPrunedIterations(graph::NodeId target,
                                      const graph::DynamicDiGraph& new_graph,
                                      la::ScoreStore* s) {
  // Per iteration the supports of ξ, η are the affected sets A_k, B_k of
  // Theorem 4; everything outside them stays untouched in S.
  const double c = options_.damping;
  const std::size_t n = new_graph.num_nodes();
  if (row_slot_.size() < n) row_slot_.resize(n, -1);
  xi_.EnsureSize(n);
  xi_.Clear();
  xi_.Accumulate(target, c);

  stats_ = AffectedAreaStats{};
  stats_.num_nodes = n;
  stats_.a_sizes.push_back(xi_.indices.size());
  stats_.b_sizes.push_back(eta_.indices.size());
  ScatterOuter(xi_, eta_, s);

  for (int k = 0; k < options_.iterations; ++k) {
    AdvanceSparse(new_graph, c, xi_, &xi_next_);
    AdvanceSparse(new_graph, 1.0, eta_, &eta_next_);
    std::swap(xi_, xi_next_);
    std::swap(eta_, eta_next_);
    stats_.a_sizes.push_back(xi_.indices.size());
    stats_.b_sizes.push_back(eta_.indices.size());
    ScatterOuter(xi_, eta_, s);
  }
  CommitOpenSessions(s);
}

Status IncSrEngine::ApplyRowUpdate(graph::NodeId target,
                                   std::span<const graph::EdgeUpdate> changes,
                                   graph::DynamicDiGraph* graph,
                                   la::DynamicRowMatrix* q, la::ScoreStore* s) {
  INCSR_CHECK(graph != nullptr && q != nullptr && s != nullptr,
              "ApplyRowUpdate: null output");
  const std::size_t n = graph->num_nodes();
  if (!graph->HasNode(target)) {
    return Status::OutOfRange("ApplyRowUpdate: bad target node " +
                              std::to_string(target));
  }
  if (s->rows() != n || q->rows() != n) {
    return Status::InvalidArgument("ApplyRowUpdate: inconsistent shapes");
  }
  // Validate the whole group against a simulated in-neighbor set before
  // mutating anything.
  auto old_in = graph->InNeighbors(target);
  std::vector<graph::NodeId> in_set(old_in.begin(), old_in.end());
  for (const graph::EdgeUpdate& change : changes) {
    if (change.dst != target) {
      return Status::InvalidArgument(
          "ApplyRowUpdate: change " + graph::ToString(change) +
          " does not target node " + std::to_string(target));
    }
    if (!graph->HasNode(change.src)) {
      return Status::OutOfRange("ApplyRowUpdate: bad source in " +
                                graph::ToString(change));
    }
    auto it = std::lower_bound(in_set.begin(), in_set.end(), change.src);
    const bool present = it != in_set.end() && *it == change.src;
    if (change.kind == graph::UpdateKind::kInsert) {
      if (present) {
        return Status::AlreadyExists("ApplyRowUpdate: duplicate " +
                                     graph::ToString(change));
      }
      in_set.insert(it, change.src);
    } else {
      if (!present) {
        return Status::NotFound("ApplyRowUpdate: absent " +
                                graph::ToString(change));
      }
      in_set.erase(it);
    }
  }

  // v = (new row − old row)ᵀ of Q, supported on I_old(j) ∪ I_new(j).
  const auto j = static_cast<std::size_t>(target);
  la::SparseVector v(n);
  {
    auto old_row = q->RowEntries(j);
    const double new_weight =
        in_set.empty() ? 0.0 : 1.0 / static_cast<double>(in_set.size());
    std::size_t a = 0;  // cursor over old_row
    std::size_t b = 0;  // cursor over in_set (new neighbors, sorted)
    while (a < old_row.size() || b < in_set.size()) {
      if (b >= in_set.size() ||
          (a < old_row.size() && old_row[a].col < in_set[b])) {
        v.Append(old_row[a].col, -old_row[a].value);  // removed neighbor
        ++a;
      } else if (a >= old_row.size() || in_set[b] < old_row[a].col) {
        v.Append(in_set[b], new_weight);  // added neighbor
        ++b;
      } else {
        const double delta = new_weight - old_row[a].value;
        if (delta != 0.0) v.Append(old_row[a].col, delta);
        ++a;
        ++b;
      }
    }
  }

  if (v.nnz() == 0) {
    // Net-zero row change (e.g. insert+delete of the same edge within the
    // group): just commit the graph mutations.
    Status applied = graph::ApplyUpdates(
        std::vector<graph::EdgeUpdate>(changes.begin(), changes.end()), graph);
    if (!applied.ok()) return applied;
    stats_ = AffectedAreaStats{};
    stats_.num_nodes = n;
    return Status::OK();
  }

  // Generalized Theorem 2 seed with u = e_target:
  //   z = S·v, γ = vᵀ·z, y = Q_old·z, θ = w = y + (γ/2)·e_target.
  // z via symmetric rows of S: z = Σₖ vₖ·S_{cₖ,·}, accumulated over each
  // row's stored entries in v order. A skipped entry is +0.0: its product
  // would only add ±0.0 to an accumulator that starts at +0.0 and so is
  // never −0.0, which leaves it unchanged. So every z entry keeps the bits
  // of the full dense sum, at O(Σₖ nnz) instead of O(|v|·n); a dense row
  // streams whole, which is the same sum and vectorizes.
  z_.EnsureSize(n);
  z_.Clear();
  for (std::size_t k = 0; k < v.nnz(); ++k) {
    const double coeff = v.values()[k];
    const auto row = static_cast<std::size_t>(v.indices()[k]);
    if (s->RowIsSparse(row)) {
      s->ForEachStored(row, [this, coeff](std::size_t col, double value) {
        z_.Accumulate(static_cast<std::int32_t>(col), coeff * value);
      });
    } else {
      la::Vector unused;  // ReadRow gathers into it only for sparse rows
      z_.AddDenseRow(coeff, s->ReadRow(row, &unused), n);
    }
  }
  z_.SortIndices();
  double gamma = 0.0;  // vᵀz, summed in v order
  for (std::size_t k = 0; k < v.nnz(); ++k) {
    gamma += v.values()[k] *
             z_.values[static_cast<std::size_t>(v.indices()[k])];
  }

  // y = Q_old·z on its support: supp(z) in ascending order, exact zeros
  // dropped, expanded through the out-neighbors. The graph still holds the
  // OLD adjacency here, so the expansion and the in-degrees are the old
  // ones, matching Q_old.
  expand_sources_.clear();
  expand_weights_.clear();
  for (std::int32_t col : z_.indices) {
    const double value = z_.values[static_cast<std::size_t>(col)];
    if (value == 0.0) continue;
    expand_sources_.push_back(col);
    expand_weights_.push_back(value);
  }
  eta_.EnsureSize(n);
  eta_.Clear();
  MultiplyQGathered(*graph, n, &eta_);
  eta_.Accumulate(target, 0.5 * gamma);
  eta_.SortIndices();

  // Commit: mutate the graph and refresh row j of Q.
  Status applied = graph::ApplyUpdates(
      std::vector<graph::EdgeUpdate>(changes.begin(), changes.end()), graph);
  if (!applied.ok()) return applied;
  graph::RefreshTransitionRow(*graph, target, q);

  RunPrunedIterations(target, *graph, s);
  return Status::OK();
}

}  // namespace incsr::core

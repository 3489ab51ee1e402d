#include "core/dynamic_simrank.h"

#include <algorithm>
#include <cmath>

#include "core/coalesced_update.h"
#include "core/inc_usr.h"
#include "graph/transition.h"
#include "simrank/batch_matrix.h"

namespace incsr::core {

namespace {

// The option checks every factory shares.
Status ValidateOptions(const simrank::SimRankOptions& options) {
  // Accepting form, so a NaN damping fails the check.
  if (!(options.damping > 0.0 && options.damping < 1.0)) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

// Iterations for the initial batch solve so that S is the fixed point of
// Eq. (2) to ~1e-12 — the exactness the incremental theorems assume.
int DefaultBatchIterations(double damping) {
  // damping^(K+1) <= 1e-13  =>  K >= log(1e-13)/log(damping) - 1.
  double k = std::log(1e-13) / std::log(damping) - 1.0;
  return std::max(20, static_cast<int>(std::ceil(k)));
}

}  // namespace

DynamicSimRank::DynamicSimRank(graph::DynamicDiGraph graph, la::ScoreStore s,
                               const simrank::SimRankOptions& options,
                               UpdateAlgorithm algorithm)
    : graph_(std::move(graph)),
      q_(graph::BuildTransition(graph_)),
      s_(std::move(s)),
      options_(options),
      algorithm_(algorithm),
      engine_(options) {}

Result<DynamicSimRank> DynamicSimRank::Create(
    graph::DynamicDiGraph graph, const simrank::SimRankOptions& options,
    UpdateAlgorithm algorithm, int batch_iterations) {
  INCSR_RETURN_IF_ERROR(ValidateOptions(options));
  simrank::SimRankOptions batch = options;
  batch.iterations = batch_iterations > 0
                         ? batch_iterations
                         : DefaultBatchIterations(options.damping);
  la::ScoreStore s(simrank::BatchMatrix(graph, batch));
  return DynamicSimRank(std::move(graph), std::move(s), options, algorithm);
}

Result<DynamicSimRank> DynamicSimRank::FromState(
    graph::DynamicDiGraph graph, la::DenseMatrix s,
    const simrank::SimRankOptions& options, UpdateAlgorithm algorithm) {
  INCSR_RETURN_IF_ERROR(ValidateOptions(options));
  if (s.rows() != graph.num_nodes() || s.cols() != graph.num_nodes()) {
    return Status::InvalidArgument("FromState: S shape does not match graph");
  }
  return DynamicSimRank(std::move(graph), la::ScoreStore(std::move(s)),
                        options, algorithm);
}

Result<DynamicSimRank> DynamicSimRank::CreateIsolated(
    std::size_t num_nodes, const simrank::SimRankOptions& options,
    UpdateAlgorithm algorithm) {
  INCSR_RETURN_IF_ERROR(ValidateOptions(options));
  graph::DynamicDiGraph graph;
  graph.AddNodes(num_nodes);
  la::ScoreStore s =
      la::ScoreStore::ScaledIdentity(num_nodes, 1.0 - options.damping);
  return DynamicSimRank(std::move(graph), std::move(s), options, algorithm);
}

double DynamicSimRank::Score(graph::NodeId a, graph::NodeId b) const {
  INCSR_CHECK(graph_.HasNode(a) && graph_.HasNode(b),
              "Score: node out of range");
  return s_(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
}

Status DynamicSimRank::InsertEdge(graph::NodeId src, graph::NodeId dst) {
  return ApplyUpdate({graph::UpdateKind::kInsert, src, dst});
}

Status DynamicSimRank::DeleteEdge(graph::NodeId src, graph::NodeId dst) {
  return ApplyUpdate({graph::UpdateKind::kDelete, src, dst});
}

Status DynamicSimRank::ApplyUpdate(const graph::EdgeUpdate& update) {
  if (algorithm_ == UpdateAlgorithm::kIncSR) {
    return engine_.ApplyUpdate(update, &graph_, &q_, &s_);
  }
  return IncUsrApplyUpdate(update, options_, &graph_, &q_, &s_);
}

Status DynamicSimRank::ApplyBatch(
    const std::vector<graph::EdgeUpdate>& updates) {
  batch_stats_ = AffectedAreaStats{};
  batch_stats_.num_nodes = graph_.num_nodes();
  for (const graph::EdgeUpdate& update : updates) {
    INCSR_RETURN_IF_ERROR(ApplyUpdate(update));
    if (algorithm_ == UpdateAlgorithm::kIncSR) {
      batch_stats_.Merge(engine_.last_stats());
    }
  }
  return Status::OK();
}

Status DynamicSimRank::ApplyBatchCoalesced(
    const std::vector<graph::EdgeUpdate>& updates) {
  if (algorithm_ != UpdateAlgorithm::kIncSR) {
    return Status::NotSupported(
        "coalesced batches require the Inc-SR update algorithm");
  }
  batch_stats_ = AffectedAreaStats{};
  batch_stats_.num_nodes = graph_.num_nodes();
  for (const CoalescedGroup& group : CoalesceByTarget(updates)) {
    INCSR_RETURN_IF_ERROR(engine_.ApplyRowUpdate(
        group.target, std::span(group.changes.data(), group.changes.size()),
        &graph_, &q_, &s_));
    batch_stats_.Merge(engine_.last_stats());
  }
  return Status::OK();
}

graph::NodeId DynamicSimRank::AddNode() {
  graph::NodeId fresh = graph_.AddNodes(1);
  const std::size_t n = graph_.num_nodes();
  q_.Grow(n, n);
  s_.GrowByIsolatedNode(1.0 - options_.damping);
  return fresh;
}

std::vector<ScoredPair> DynamicSimRank::TopKPairs(std::size_t k) const {
  return TopKPairsOf(s_, k);
}

std::vector<ScoredPair> DynamicSimRank::TopKFor(graph::NodeId query,
                                                std::size_t k) const {
  INCSR_CHECK(graph_.HasNode(query), "TopKFor: node out of range");
  return TopKForOf(s_, query, k);
}

}  // namespace incsr::core

#include "shard/sharded_service.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/scheduler.h"
#include "common/timer.h"
#include "la/dense_matrix.h"
#include "la/score_store.h"

namespace incsr::shard {

namespace {

using core::ScoredPairRanksBefore;

}  // namespace

Result<std::unique_ptr<ShardedSimRankService>> ShardedSimRankService::Create(
    const graph::DynamicDiGraph& graph,
    const simrank::SimRankOptions& sr_options,
    const ShardedServiceOptions& options, core::UpdateAlgorithm algorithm) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ShardPlan plan = ShardPlan::Build(graph, options.num_shards);
  std::unique_ptr<ShardedSimRankService> sharded(new ShardedSimRankService(
      std::move(plan), sr_options, options, algorithm));
  sharded->services_.resize(sharded->plan_.num_shards());
  for (std::size_t s = 0; s < sharded->plan_.num_shards(); ++s) {
    graph::DynamicDiGraph sub = sharded->plan_.BuildSubgraph(graph, s);
    Result<core::DynamicSimRank> index =
        core::DynamicSimRank::Create(std::move(sub), sr_options, algorithm);
    if (!index.ok()) return index.status();
    Result<std::unique_ptr<service::SimRankService>> svc =
        service::SimRankService::Create(std::move(index).value(),
                                        sharded->PerShardOptions(s));
    if (!svc.ok()) return svc.status();
    sharded->services_[s] = std::move(svc).value();
  }
  return sharded;
}

ShardedSimRankService::ShardedSimRankService(
    ShardPlan plan, const simrank::SimRankOptions& sr_options,
    const ShardedServiceOptions& options, core::UpdateAlgorithm algorithm)
    : sr_options_(sr_options),
      options_(options),
      algorithm_(algorithm),
      plan_(std::move(plan)) {}

ShardedSimRankService::~ShardedSimRankService() { Stop(); }

service::ServiceOptions ShardedSimRankService::PerShardOptions(
    std::size_t slot) const {
  service::ServiceOptions per_shard = options_.per_shard;
  if (per_shard.scheduler_group < 0) {
    // Each shard slot gets its own scheduler affinity group, so the K
    // concurrent appliers home their kernels on disjoint worker
    // neighborhoods (a hot shard spills into the others only by
    // stealing). Slot ids are stable across merges — the merged shard
    // keeps the surviving slot's group.
    per_shard.scheduler_group = static_cast<int>(slot);
  }
  return per_shard;
}

Status ShardedSimRankService::Submit(const graph::EdgeUpdate& update) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (!plan_.HasNode(update.src) || !plan_.HasNode(update.dst)) {
      // The single service accepts such an update and counts it failed in
      // the applier; the router can tell immediately. Same net effect.
      router_failed_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
    const std::size_t src_shard = plan_.ShardOf(update.src);
    const std::size_t dst_shard = plan_.ShardOf(update.dst);
    if (src_shard == dst_shard) {
      return services_[src_shard]->Submit(
          {update.kind, plan_.ToLocal(update.src), plan_.ToLocal(update.dst)});
    }
    if (update.kind == graph::UpdateKind::kDelete) {
      // No edge can exist across shards; drop and count, mirroring the
      // single service's applier-side validation.
      router_failed_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  // Cross-shard insert: the partition must change. Take the lock
  // exclusively and re-check — another writer may have merged these
  // shards (or a superset) while we waited.
  std::unique_lock<std::shared_mutex> lock(mu_);
  const std::size_t src_shard = plan_.ShardOf(update.src);
  const std::size_t dst_shard = plan_.ShardOf(update.dst);
  if (src_shard == dst_shard) {
    return services_[src_shard]->Submit(
        {update.kind, plan_.ToLocal(update.src), plan_.ToLocal(update.dst)});
  }
  return MergeAndSubmit(update);
}

Status ShardedSimRankService::SubmitBatch(
    const std::vector<graph::EdgeUpdate>& updates) {
  for (const graph::EdgeUpdate& update : updates) {
    INCSR_RETURN_IF_ERROR(Submit(update));
  }
  return Status::OK();
}

Status ShardedSimRankService::MergeAndSubmit(const graph::EdgeUpdate& update) {
  const std::size_t sa = plan_.ShardOf(update.src);
  const std::size_t sb = plan_.ShardOf(update.dst);
  const std::size_t na = plan_.ShardNodes(sa).size();
  const std::size_t nb = plan_.ShardNodes(sb).size();
  // Merge-into-larger; ties break toward the lower slot id so the choice
  // is deterministic in the plan state alone.
  const std::size_t dst = na > nb ? sa : (nb > na ? sb : std::min(sa, sb));
  const std::size_t src = dst == sa ? sb : sa;

  // Stop() drains each shard's queue and publishes its final epoch; the
  // snapshots below are therefore the complete pre-merge states. No
  // readers are in flight (they hold mu_ shared).
  services_[dst]->Stop();
  services_[src]->Stop();
  auto dst_snap = services_[dst]->Snapshot();
  auto src_snap = services_[src]->Snapshot();
  // Their counts stay in the totals; their gauges (rows, queue depth)
  // now belong to the merged shard, which reports them itself.
  obs::MergeStats(&retired_, services_[dst]->stats(), /*gauges=*/false);
  obs::MergeStats(&retired_, services_[src]->stats(), /*gauges=*/false);

  // Old local -> global maps, captured before the plan mutates.
  const std::vector<graph::NodeId> dst_nodes = plan_.ShardNodes(dst);
  const std::vector<graph::NodeId> src_nodes = plan_.ShardNodes(src);
  plan_.MergeShards(dst, src);
  const std::size_t merged_n = plan_.ShardNodes(dst).size();

  // Everything from here to the merged service starting is ingest stall
  // for this shard pair; surface it in stats().merge_rebuild_seconds.
  WallTimer rebuild_timer;

  // Rebuild the merged graph in the re-sorted (ascending-global) local id
  // space.
  graph::DynamicDiGraph merged_graph(merged_n);
  const auto add_edges = [this, &merged_graph](
                             const graph::DynamicDiGraph::View& g,
                             const std::vector<graph::NodeId>& globals) {
    for (const graph::Edge& e : g.Edges()) {
      Status added = merged_graph.AddEdge(
          plan_.ToLocal(globals[static_cast<std::size_t>(e.src)]),
          plan_.ToLocal(globals[static_cast<std::size_t>(e.dst)]));
      INCSR_CHECK(added.ok(), "merged-graph edge insert failed: %s",
                  added.ToString().c_str());
    }
  };
  add_edges(dst_snap->graph, dst_nodes);
  add_edges(src_snap->graph, src_nodes);

  // Merged S = block-diagonal combination of the two published scores.
  // Exact: the components being joined share no in-link paths yet, so
  // every cross-block entry is identically 0; the triggering insert is
  // applied incrementally afterwards, exactly as a single service would.
  la::DenseMatrix merged_s(merged_n, merged_n);
  const auto copy_block = [this, &merged_s](
                              const la::ScoreStore::View& scores,
                              const std::vector<graph::NodeId>& globals) {
    // Resolve the old-local -> merged-local column map once; the row
    // loop then parallelizes over disjoint destination rows (each row i
    // scatters into its own merged row), bitwise identical to the
    // serial copy this replaces.
    std::vector<std::size_t> to_local(globals.size());
    for (std::size_t j = 0; j < globals.size(); ++j) {
      to_local[j] = static_cast<std::size_t>(plan_.ToLocal(globals[j]));
    }
    const std::size_t grain = std::max<std::size_t>(
        1, 32768 / std::max<std::size_t>(globals.size(), 1));
    Scheduler::Global().ParallelFor(
        0, globals.size(), grain,
        Scheduler::ResolveNumThreads(sr_options_.num_threads),
        [&scores, &merged_s, &to_local](std::size_t lo, std::size_t hi) {
          // Per-chunk gather scratch: sparse-backed rows of the published
          // view expand here; dense rows come back as direct pointers.
          la::Vector scratch;
          for (std::size_t i = lo; i < hi; ++i) {
            const double* from = scores.ReadRow(i, &scratch);
            double* to = merged_s.RowPtr(to_local[i]);
            for (std::size_t j = 0; j < to_local.size(); ++j) {
              to[to_local[j]] = from[j];
            }
          }
        });
  };
  copy_block(dst_snap->scores, dst_nodes);
  copy_block(src_snap->scores, src_nodes);

  // The inputs were validated when the original shards were created, so a
  // failure here is an invariant violation; returning an error instead
  // would leave the façade corrupted (plan_ merged, services_ not), so
  // fail fast like the other impossible paths above.
  Result<core::DynamicSimRank> index = core::DynamicSimRank::FromState(
      std::move(merged_graph), std::move(merged_s), sr_options_, algorithm_);
  INCSR_CHECK(index.ok(), "merged-shard FromState failed: %s",
              index.status().ToString().c_str());
  // Charge what the merged store says it materialized (today: the dense
  // block-diagonal re-pack; under a future sparse/factored backing,
  // whatever that costs) instead of assuming merged_n²·8.
  const la::ScoreStoreStats& store_stats = index.value().scores().stats();
  merge_rebuild_rows_ += store_stats.rows_materialized;
  merge_rebuild_bytes_ += store_stats.bytes_materialized;
  Result<std::unique_ptr<service::SimRankService>> svc =
      service::SimRankService::Create(std::move(index).value(),
                                      PerShardOptions(dst));
  INCSR_CHECK(svc.ok(), "merged-shard service start failed: %s",
              svc.status().ToString().c_str());
  services_[dst] = std::move(svc).value();
  services_[src].reset();
  ++merges_;
  merge_rebuild_seconds_ += rebuild_timer.ElapsedSeconds();

  return services_[dst]->Submit(
      {update.kind, plan_.ToLocal(update.src), plan_.ToLocal(update.dst)});
}

Status ShardedSimRankService::Flush() {
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& svc : services_) {
    if (svc != nullptr) INCSR_RETURN_IF_ERROR(svc->Flush());
  }
  return Status::OK();
}

void ShardedSimRankService::Stop() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& svc : services_) {
    if (svc != nullptr) svc->Stop();
  }
}

Result<double> ShardedSimRankService::Score(graph::NodeId a,
                                            graph::NodeId b) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!plan_.HasNode(a) || !plan_.HasNode(b)) {
    return Status::OutOfRange("Score: node out of range");
  }
  const std::size_t sa = plan_.ShardOf(a);
  if (sa != plan_.ShardOf(b)) return 0.0;  // cross-shard SimRank is exact 0
  return services_[sa]->Score(plan_.ToLocal(a), plan_.ToLocal(b));
}

Result<std::vector<core::ScoredPair>> ShardedSimRankService::TopKFor(
    graph::NodeId query, std::size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!plan_.HasNode(query)) {
    return Status::OutOfRange("TopKFor: node out of range");
  }
  const std::size_t shard = plan_.ShardOf(query);
  Result<std::vector<core::ScoredPair>> local =
      services_[shard]->TopKFor(plan_.ToLocal(query), k);
  if (!local.ok()) return local.status();
  // Translate to global ids; the shard's local-id tie order maps to the
  // global-id tie order because local ids ascend with global ids.
  std::vector<core::ScoredPair> owned = std::move(local).value();
  for (core::ScoredPair& pair : owned) {
    pair.a = query;
    pair.b = plan_.ToGlobal(shard, pair.b);
  }
  // Merge with the other shards' nodes, whose scores are exact 0.0, in
  // ascending global id order — bitwise what a single service's full-row
  // scan returns under the (descending score, ascending id) contract.
  std::vector<core::ScoredPair> out;
  out.reserve(std::min(k, plan_.num_nodes()));  // at most n - 1 results
  std::size_t cursor = 0;                      // over `owned`
  graph::NodeId zero = 0;                      // next cross-shard candidate
  const auto n = static_cast<graph::NodeId>(plan_.num_nodes());
  while (out.size() < k) {
    while (zero < n && plan_.ShardOf(zero) == shard) ++zero;
    const bool have_local = cursor < owned.size();
    const bool have_zero = zero < n;
    if (!have_local && !have_zero) break;
    core::ScoredPair zero_pair{query, zero, 0.0};
    if (!have_zero || (have_local && ScoredPairRanksBefore(owned[cursor], zero_pair))) {
      out.push_back(owned[cursor++]);
    } else {
      out.push_back(zero_pair);
      ++zero;
    }
  }
  return out;
}

std::vector<core::ScoredPair> ShardedSimRankService::TopKPairs(
    std::size_t k) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  // Per-shard top-k lists, translated to global ids. Any pair of the
  // global top-k that lies within one shard must be within that shard's
  // top-k (the order restricted to a shard's pairs is the shard's own
  // order), so k per shard suffices.
  std::vector<std::vector<core::ScoredPair>> lists;
  lists.reserve(services_.size());
  for (std::size_t s = 0; s < services_.size(); ++s) {
    if (services_[s] == nullptr) continue;
    std::vector<core::ScoredPair> list = services_[s]->TopKPairs(k);
    for (core::ScoredPair& pair : list) {
      pair.a = plan_.ToGlobal(s, pair.a);
      pair.b = plan_.ToGlobal(s, pair.b);  // a < b survives: maps ascend
    }
    lists.push_back(std::move(list));
  }
  // Deterministic k-way merge under the shared contract, interleaved with
  // a lazy ascending-(a, b) generator of cross-shard pairs (score exactly
  // 0); those only surface once k exceeds the positive-score pair count,
  // where a single service's scan would emit them in the same order.
  const auto n = static_cast<graph::NodeId>(plan_.num_nodes());
  graph::NodeId gen_a = 0;
  graph::NodeId gen_b = 1;
  const auto gen_valid = [&] {
    while (gen_a < n) {
      if (gen_b >= n) {
        ++gen_a;
        gen_b = gen_a + 1;
        continue;
      }
      if (plan_.ShardOf(gen_a) != plan_.ShardOf(gen_b)) return true;
      ++gen_b;
    }
    return false;
  };
  const std::size_t num_pairs =
      plan_.num_nodes() * (plan_.num_nodes() - 1) / 2;
  std::vector<std::size_t> cursors(lists.size(), 0);
  std::vector<core::ScoredPair> out;
  out.reserve(std::min(k, num_pairs));
  while (out.size() < k) {
    const core::ScoredPair* best = nullptr;
    std::size_t best_list = 0;
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (cursors[l] >= lists[l].size()) continue;
      const core::ScoredPair& head = lists[l][cursors[l]];
      if (best == nullptr || ScoredPairRanksBefore(head, *best)) {
        best = &head;
        best_list = l;
      }
    }
    if (gen_valid() &&
        (best == nullptr ||
         ScoredPairRanksBefore(core::ScoredPair{gen_a, gen_b, 0.0}, *best))) {
      out.push_back({gen_a, gen_b, 0.0});
      ++gen_b;
    } else if (best != nullptr) {
      out.push_back(*best);
      ++cursors[best_list];
    } else {
      break;
    }
  }
  return out;
}

ShardedStats ShardedSimRankService::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ShardedStats out;
  out.total = retired_;
  for (std::size_t s = 0; s < services_.size(); ++s) {
    if (services_[s] == nullptr) continue;
    ShardedStats::ShardEntry entry;
    entry.slot = s;
    entry.nodes = plan_.ShardNodes(s).size();
    entry.stats = services_[s]->stats();
    out.total += entry.stats;
    out.per_shard.push_back(std::move(entry));
    ++out.active_shards;
  }
  out.merges = merges_;
  out.router_failed = router_failed_.load(std::memory_order_relaxed);
  // An update dropped at the router is "accepted then failed" in
  // single-service terms; count it on both sides so the identity
  // submitted == applied + rejected + failed + queue_depth holds for the
  // totals, as it does per shard.
  out.total.submitted += out.router_failed;
  out.total.failed += out.router_failed;
  out.merge_rebuild_rows = merge_rebuild_rows_;
  out.merge_rebuild_bytes = merge_rebuild_bytes_;
  out.merge_rebuild_seconds = merge_rebuild_seconds_;
  return out;
}

std::size_t ShardedSimRankService::num_nodes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return plan_.num_nodes();
}

std::size_t ShardedSimRankService::num_edges() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::size_t edges = 0;
  for (const auto& svc : services_) {
    if (svc != nullptr) edges += svc->Snapshot()->graph.num_edges();
  }
  return edges;
}

}  // namespace incsr::shard

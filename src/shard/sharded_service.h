// ShardedSimRankService — component-sharded serving: K independent
// SimRankService instances behind one routing façade. The same paper
// observation that bounds an update's affected area also shards the node
// space: SimRank across weakly connected components is exactly 0, so each
// shard owns a disjoint component group with a smaller dense S (memory
// Σ nᵢ² instead of n²) and its own ingest queue + applier thread —
// updates to different shards apply concurrently on the shared pool.
//
// Routing rules:
//   - EdgeUpdate: both endpoints always live in one component, hence one
//     shard — the update is translated to shard-local ids and enqueued
//     there. A cross-shard INSERT is the one event that breaks the
//     partition (it joins two components): the router merges the smaller
//     shard into the larger (see below), then routes the insert to the
//     merged shard. A cross-shard DELETE can never name an existing edge;
//     it is dropped and counted (stats().router_failed), mirroring the
//     single service's applier-side failed count.
//   - Score(a, b): one shard when a, b share a shard; exactly 0.0
//     otherwise (no computation, no cross-shard traffic).
//   - TopKFor(q, k): answered by q's shard — through its per-node top-k
//     index (service/topk_index.h) when the shard's entry covers k, a row
//     scan otherwise; both are bitwise-identical sources — then
//     zero-padded with the other shards' node ids in ascending order —
//     bitwise identical to a single service scanning the full row,
//     because cross-shard scores are exact +0.0 and the tie-break
//     contract (descending score, ascending id; core/dynamic_simrank.h)
//     totally orders the merge.
//   - TopKPairs(k): deterministic k-way merge of the per-shard top-k
//     heaps under the same contract, interleaved with a lazy generator of
//     cross-shard (score 0) pairs in ascending (a, b) order.
//
// Component-merge semantics (merge-into-larger): on a cross-shard insert
// the router Stop()s both involved shards, re-sorts the union of their
// node sets into a fresh ascending-global local id space, rebuilds the
// merged graph, and assembles the merged S as the block-diagonal
// combination of the two published score matrices — exact, because the
// cross-block scores of the not-yet-joined components are identically 0.
// The triggering insert is then applied incrementally by the merged
// shard, exactly as a single service would have. Rebuild cost (rows and
// bytes materialized into the merged store) is surfaced in stats().
//
// Consistency model: per shard, identical to SimRankService (epoch
// snapshots; Flush() is a barrier across all shards). Cross-shard reads
// (TopKPairs) combine per-shard snapshots that may be of different
// epochs; after Flush() with no concurrent writers every shard serves its
// final epoch, so results are exact for the final graph.
#ifndef INCSR_SHARD_SHARDED_SERVICE_H_
#define INCSR_SHARD_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "core/dynamic_simrank.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "service/simrank_service.h"
#include "shard/shard_plan.h"
#include "simrank/options.h"

namespace incsr::shard {

/// Knobs for the sharded façade. Per-shard options apply to every shard
/// (each shard gets its own queue, applier, cache of that size).
struct ShardedServiceOptions {
  /// Number of shards to partition the components across; clamped to the
  /// component count (at least 1).
  std::size_t num_shards = 1;
  service::ServiceOptions per_shard;
};

/// Aggregated counters. Totals sum the live shards plus every shard
/// retired by a merge, so they are cumulative across the service's life.
struct ShardedStats {
  /// One entry per live shard slot, in slot order (merged-away slots are
  /// omitted); `slot` identifies the shard, `nodes` its node count.
  struct ShardEntry {
    std::size_t slot = 0;
    std::size_t nodes = 0;
    service::ServiceStats stats;
  };
  std::vector<ShardEntry> per_shard;
  /// Aggregate over live shards + shards retired by merges, field-wise by
  /// each field's aggregation (obs/stats_schema.h): counters sum, `epoch`
  /// is the MAX per-shard epoch, and gauges (current rows, queue depth)
  /// cover the live shards only.
  service::ServiceStats total;
  std::size_t active_shards = 0;
  /// Cross-shard inserts routed through the merge path.
  std::uint64_t merges = 0;
  /// Updates dropped at the router without reaching a shard: cross-shard
  /// deletes (the edge cannot exist) and out-of-range node ids. Counted
  /// into total.submitted and total.failed, mirroring the single
  /// service's accept-then-fail accounting.
  std::uint64_t router_failed = 0;
  /// Merge rebuild cost: score rows (and bytes) materialized into merged
  /// stores — the price of re-packing two blocks into one id space.
  /// Bytes are the merged stores' own materialization accounting
  /// (la::ScoreStoreStats::bytes_materialized), not an assumed-dense
  /// n²·8, so they stay honest if the backing representation changes.
  std::uint64_t merge_rebuild_rows = 0;
  std::uint64_t merge_rebuild_bytes = 0;
  /// Cumulative wall time spent inside merge rebuilds (stop + re-pack +
  /// re-init + restart), the ingest stall a cross-shard insert causes.
  double merge_rebuild_seconds = 0.0;
};

/// Thread-safe sharded SimRank serving façade over a fixed global node
/// space. Same usage shape as service::SimRankService: create once,
/// Submit from any number of writers, query from any number of readers.
/// All node ids in the public API are GLOBAL ids.
class ShardedSimRankService {
 public:
  /// Partitions `graph` with ShardPlan::Build, solves each shard's
  /// initial S independently, and starts one SimRankService per shard.
  static Result<std::unique_ptr<ShardedSimRankService>> Create(
      const graph::DynamicDiGraph& graph,
      const simrank::SimRankOptions& sr_options = {},
      const ShardedServiceOptions& options = {},
      core::UpdateAlgorithm algorithm = core::UpdateAlgorithm::kIncSR);

  ~ShardedSimRankService();

  ShardedSimRankService(const ShardedSimRankService&) = delete;
  ShardedSimRankService& operator=(const ShardedSimRankService&) = delete;

  // ---- Writer side -------------------------------------------------------

  /// Routes one update to the shard owning its endpoints (merging shards
  /// first if a cross-shard insert requires it). Backpressure and
  /// validation semantics are the owning shard's.
  Status Submit(const graph::EdgeUpdate& update);

  /// Routes a sequence of updates (stops at the first rejection).
  Status SubmitBatch(const std::vector<graph::EdgeUpdate>& updates);

  /// Barrier across every shard: returns once all updates accepted before
  /// the call are applied and published by their shards.
  Status Flush();

  /// Stops every shard (drains queues, publishes final epochs). Reads
  /// stay valid forever. Idempotent.
  void Stop();

  // ---- Reader side -------------------------------------------------------

  /// SimRank score of (a, b): exact 0.0 across shards, the owning shard's
  /// published score otherwise.
  Result<double> Score(graph::NodeId a, graph::NodeId b) const;

  /// Top-k most similar nodes to `query` over the GLOBAL node space.
  Result<std::vector<core::ScoredPair>> TopKFor(graph::NodeId query,
                                                std::size_t k) const;

  /// Top-k highest-scoring distinct pairs over the global node space.
  std::vector<core::ScoredPair> TopKPairs(std::size_t k) const;

  ShardedStats stats() const;
  std::size_t num_nodes() const;
  /// Sum of per-shard edge counts in the latest published snapshots.
  std::size_t num_edges() const;

 private:
  ShardedSimRankService(ShardPlan plan,
                        const simrank::SimRankOptions& sr_options,
                        const ShardedServiceOptions& options,
                        core::UpdateAlgorithm algorithm);

  /// Per-shard service options for `slot`: the configured per_shard
  /// options plus a slot-derived scheduler affinity group (unless the
  /// caller pinned one explicitly).
  service::ServiceOptions PerShardOptions(std::size_t slot) const;

  /// Cross-shard insert path; called with mu_ held exclusively. Merges
  /// the shard slots owning `update`'s endpoints (into the
  /// larger-by-nodes one; ties: lower slot) and submits the update to the
  /// merged shard.
  Status MergeAndSubmit(const graph::EdgeUpdate& update);

  const simrank::SimRankOptions sr_options_;
  const ShardedServiceOptions options_;
  const core::UpdateAlgorithm algorithm_;

  // Guards plan_/services_ topology: routing takes it shared, shard
  // merges take it exclusive. Per-shard concurrency (queues, snapshots)
  // is the shards' own.
  mutable std::shared_mutex mu_;
  ShardPlan plan_;
  // Indexed by shard slot; a slot merged away holds nullptr.
  std::vector<std::unique_ptr<service::SimRankService>> services_;

  // Counters below (except router_failed_) are only mutated with mu_ held
  // exclusively; router_failed_ is bumped under the shared lock by any
  // writer dropping a cross-shard delete, hence atomic.
  // Merged-away shards' final stats, gauges left out (obs::MergeStats).
  service::ServiceStats retired_;
  std::uint64_t merges_ = 0;
  std::atomic<std::uint64_t> router_failed_{0};
  std::uint64_t merge_rebuild_rows_ = 0;
  std::uint64_t merge_rebuild_bytes_ = 0;
  double merge_rebuild_seconds_ = 0.0;
};

}  // namespace incsr::shard

#endif  // INCSR_SHARD_SHARDED_SERVICE_H_

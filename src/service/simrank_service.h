// SimRankService — concurrent serving layer over the exact incremental
// engine. The paper's scenario is a link-evolving graph under live traffic
// (citation feeds, re-ranked video lists); the core DynamicSimRank is
// single-threaded, so this façade adds the three pieces a service needs:
//
//   1. Ingest pipeline: writers enqueue EdgeUpdates into a bounded MPSC
//      queue (backpressure: block or reject). A background applier thread
//      drains the queue in batches and absorbs each batch with
//      ApplyBatchCoalesced — one generalized rank-one Sylvester solve per
//      DISTINCT target node, the |ΔG|/T saving of core/coalesced_update.h,
//      which queueing naturally amplifies: the deeper the backlog, the more
//      updates cluster per target.
//
//   2. Epoch snapshots: after each batch the applier publishes an immutable
//      EpochSnapshot via shared_ptr swap. S is NOT copied: the snapshot
//      holds a pinned page root over the paged copy-on-write score store
//      (common/cow_table.h), as do the graph and top-k index: each publish
//      copies ⌈n/256⌉ pointers, and the writes clone one 256-pointer page
//      per touched page plus the touched rows, so an epoch costs O(rows
//      touched · 256 + n/256), not O(n²). A pinned snapshot stays
//      byte-stable forever.
//      Readers pin a snapshot with one pointer copy under a short mutex —
//      they never block behind an in-flight update and can never observe
//      a torn S.
//
//   3. Affected-area query cache: TopKFor/TopKPairs results are memoized
//      and invalidated selectively from the batch's touched rows — the
//      score store's COW-clone record, the exact set of rows the batch
//      wrote — instead of being flushed wholesale (see
//      service/query_cache.h).
//
//   4. Per-node top-k index: each epoch carries a bounded candidate index
//      (service/topk_index.h) re-ranked incrementally from the same
//      touched-row set, so a TopKFor cache MISS with k within the per-node
//      capacity is O(k) index reads, not an O(n) row scan — the last
//      O(n)-per-query hot path, made affected-area-proportional. A
//      complete entry is patched by the columns whose scores changed
//      rather than re-sorted, so the re-rank follows the delta too.
//      Results are bitwise identical to the row scan; k past an
//      incomplete entry falls back to the scan (counted in
//      stats().topk_index_fallbacks).
//
// Consistency model: Score/TopKFor/TopKPairs reflect SOME published epoch
// at least as new as the last Flush() that returned. Flush() is the
// barrier: it returns once every previously accepted update has been
// applied AND published, after which reads are exact for the final graph.
#ifndef INCSR_SERVICE_SIMRANK_SERVICE_H_
#define INCSR_SERVICE_SIMRANK_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/dynamic_simrank.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "obs/histogram.h"
#include "obs/stats_schema.h"
#include "service/query_cache.h"
#include "service/topk_index.h"

namespace incsr::service {

/// What Submit does when the ingest queue is full.
enum class BackpressurePolicy {
  /// Block the writer until the applier frees queue space (or Stop()).
  kBlock,
  /// Fail fast with ResourceExhausted; the writer decides what to drop.
  kReject,
};

/// Tiered-storage policy for the score rows (docs/score_store.md). When
/// enabled, a row's tier is decided only when the row is built or written:
/// Create demotes every row once, the write path keeps a sparse row sparse
/// up to max_density, and each publish demotes the dense rows its batch
/// wrote (entries ≥ ε plus the row's top-k index columns survive; see
/// la::ScoreStore::SparsifyRow). Reads never move a row, so a replica fed
/// the same batches holds the primary's tiers. OFF by default: the dense
/// store's bitwise guarantees (replica equality, shard-count invariance)
/// are untouched unless a deployment opts in.
struct SparsityPolicy {
  bool enabled = false;
  /// Sparsification drop threshold: entries with |v| < epsilon may be
  /// dropped from a demoted row. 0 is valid — pure lossless compression
  /// (exact +0.0 elision only), bitwise identical to the dense store.
  double epsilon = 0.0;
  /// Rows whose retained fraction exceeds this stay dense (index+value
  /// pairs cost 12 bytes against 8 dense; see la::SparsityConfig).
  double max_density = 0.5;
};

/// Serving-layer knobs.
struct ServiceOptions {
  /// Ingest queue capacity (updates). Must be >= 1.
  std::size_t queue_capacity = 4096;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Max updates drained into one coalesced apply/publish cycle. Larger
  /// batches amortize the snapshot copy and coalesce better; smaller ones
  /// publish fresher epochs. Must be >= 1.
  std::size_t max_batch = 512;
  /// Query-cache capacity in cached query nodes; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Per-node top-k index capacity: every node keeps its top
  /// `topk_index_capacity` candidates, re-ranked at publish time for the
  /// rows the batch touched, so TopKFor cache misses with k within the
  /// capacity are O(k) index reads instead of O(n) row scans
  /// (service/topk_index.h). At capacity >= n-1 every entry is complete
  /// and a touched row's entry is patched by its changed columns,
  /// O(n + |Δ| log |Δ|); a bounded entry is rescanned, O(n log c) on a
  /// dense row. Requests past an incomplete entry fall back to the row
  /// scan, bitwise identically. 0 disables the index.
  std::size_t topk_index_capacity = 4096;
  /// Scheduler affinity group the applier thread binds
  /// (Scheduler::BindCurrentThreadToGroup): the applier's parallel
  /// kernels publish their work tickets starting at the group's home
  /// worker, so concurrent appliers with distinct groups fill disjoint
  /// worker neighborhoods first and only spill into each other's by
  /// stealing. Negative = unbound (rotating default). The sharded
  /// façade assigns each shard slot its own group.
  int scheduler_group = -1;
  /// Tiered sparse row storage (off by default; see SparsityPolicy).
  SparsityPolicy sparse;
};

/// The check Create and CreateReplica run: queue_capacity and max_batch
/// >= 1, sparse.epsilon finite and >= 0, sparse.max_density in (0, 1].
/// InvalidArgument otherwise (a NaN fails). Front ends call it right after
/// parsing, before building an index.
Status ValidateOptions(const ServiceOptions& options);

/// Counter snapshot of service activity, declared as one field table
/// (obs/stats_schema.h). The table order is also the wire order of the
/// StatsResponse field list, which decoders match by name. Everything the
/// applier writes is counted in an applier-private copy that each publish
/// freezes into its EpochSnapshot; stats() overlays the reader- and
/// submitter-side fields.
///
/// Top-k index fields are all zero when topk_index_capacity = 0; every
/// TopKFor cache miss is either index-served or a fallback.
/// rows_published / applied is the publish amplification (a full-copy
/// snapshot would pay n rows per batch). The tiered-storage fields stay
/// zero while SparsityPolicy is disabled; tier_demotions counts the
/// Create and publish-time demotions, while write-path densification is
/// rows_spilled_dense. The two histograms merge bucket-wise across shards.
#define INCSR_SERVICE_STATS(X)                                              \
  X(epoch, std::uint64_t, kMax, "",                                         \
    "sequence number of the published snapshot")                           \
  X(topk_index_served, std::uint64_t, kSum, "queries",                      \
    "TopKFor misses answered from the per-node index in O(k)")             \
  X(topk_index_fallbacks, std::uint64_t, kSum, "queries",                   \
    "TopKFor misses that fell back to the row scan")                       \
  X(topk_index_rows_reranked, std::uint64_t, kSum, "rows",                  \
    "per-node index entries re-ranked at publish time")                    \
  X(topk_index_rows_patched, std::uint64_t, kSum, "rows",                   \
    "re-ranked entries patched by their changed columns, not rescanned")   \
  X(topk_pairs_served, std::uint64_t, kSum, "queries",                      \
    "TopKPairs misses answered by the k-way merge over the index")         \
  X(topk_pairs_fallbacks, std::uint64_t, kSum, "queries",                   \
    "TopKPairs misses that fell back to the O(n^2) pair scan")             \
  X(rows_published, std::uint64_t, kSum, "rows",                            \
    "score rows copy-on-written to keep snapshots immutable")              \
  X(bytes_published, std::uint64_t, kSum, "bytes",                          \
    "score bytes copy-on-written to keep snapshots immutable")             \
  X(graph_bytes_copied, std::uint64_t, kSum, "bytes",                       \
    "adjacency bytes copy-on-written by graph snapshots")                  \
  X(rows_sparse, std::uint64_t, kGauge, "rows",                             \
    "score rows currently in the sparse tier")                             \
  X(rows_dense, std::uint64_t, kGauge, "rows",                              \
    "score rows currently dense")                                          \
  X(bytes_saved, std::uint64_t, kGauge, "bytes",                            \
    "dense footprint the sparse rows shed right now")                      \
  X(sparse_eps_drops, std::uint64_t, kSum, "entries",                       \
    "entries below epsilon dropped by sparsification")                     \
  X(sparse_max_error_bound, double, kMax, "score",                          \
    "upper bound on |served - exact| score")                               \
  X(tier_demotions, std::uint64_t, kSum, "rows",                            \
    "Create and publish-time dense-to-sparse moves")                       \
  X(rows_spilled_dense, std::uint64_t, kSum, "rows",                        \
    "sparse rows the write path densified")                                \
  X(sparse_write_merges, std::uint64_t, kSum, "rows",                       \
    "batch writes committed as an in-tier sparse merge")                   \
  X(cache, QueryCacheStats, kSum, "", "query cache")                        \
  X(submitted, std::uint64_t, kSum, "updates",                              \
    "updates accepted into the ingest queue")                              \
  X(rejected, std::uint64_t, kSum, "updates",                               \
    "updates refused by backpressure")                                     \
  X(failed, std::uint64_t, kSum, "updates", "updates skipped as invalid")   \
  X(applied, std::uint64_t, kSum, "updates", "updates applied to the index") \
  X(apply_ns, obs::HistogramSnapshot, kHistogram, "ns",                     \
    "per-batch apply and publish wall time")                               \
  X(queue_wait_ns, obs::HistogramSnapshot, kHistogram, "ns",                \
    "per-update wait from Submit to the applier draining it")              \
  X(queue_depth, std::size_t, kGauge, "updates", "updates currently queued") \
  X(batches, std::uint64_t, kSum, "batches", "apply/publish cycles")

struct ServiceStats {
  INCSR_STATS_TABLE(ServiceStats, INCSR_SERVICE_STATS)
};

/// Immutable published state; readers hold it via shared_ptr, so a pinned
/// snapshot stays valid (and unchanging) while newer epochs are published.
/// `scores` is a copy-on-write view: publishing it copied ⌈n/256⌉ page
/// pointers, and its bytes never change while the snapshot is pinned.
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  /// Copy-on-write adjacency view: publishing costs ⌈n/256⌉ page pointer
  /// copies, and the applier's next writes clone only the pages and nodes
  /// they touch (graph::DynamicDiGraph::Snapshot) — not the former
  /// per-epoch O(n+m) deep graph copy.
  graph::DynamicDiGraph::View graph;
  la::ScoreStore::View scores;
  /// Per-node top-k candidate index of this epoch (empty when disabled);
  /// always consistent with `scores` — both were published together.
  TopKIndex::View topk;
  /// The applier's counters as of this epoch (the fields only the applier
  /// writes; the rest stay zero here — SimRankService::stats() fills them).
  ServiceStats stats;
};

/// Observes the applied update stream: called by the applier after every
/// apply/publish cycle with the published epoch (a dense 1-based sequence
/// number) and the batch exactly as applied — pre-validated, in apply
/// order, possibly empty when every drained update was invalid. This is
/// the replication surface: a replica that applies the same batches with
/// the same boundaries to the same initial state reproduces S bitwise
/// (the kernels are deterministic). Invoked on the applier thread, so it
/// must be cheap and must not call back into the service's writer side.
using AppliedBatchListener = std::function<void(
    std::uint64_t seq, const std::vector<graph::EdgeUpdate>& batch)>;

/// Thread-safe SimRank serving façade. Create once, Submit from any number
/// of writer threads, query from any number of reader threads.
class SimRankService {
 public:
  /// Takes ownership of a built index and starts the applier thread.
  static Result<std::unique_ptr<SimRankService>> Create(
      core::DynamicSimRank index, const ServiceOptions& options = {});

  /// Read-replica mode: no applier thread, Submit is rejected — state
  /// advances only through ApplyReplicated, which replays a primary's
  /// applied batch stream. The index must be built from the same graph
  /// and options as the primary's so epoch 0 matches bitwise; every later
  /// epoch then matches too, because both sides run the same
  /// deterministic kernels over the same batch boundaries.
  static Result<std::unique_ptr<SimRankService>> CreateReplica(
      core::DynamicSimRank index, const ServiceOptions& options = {});

  /// Stops the service (drains the queue first, see Stop()).
  ~SimRankService();

  SimRankService(const SimRankService&) = delete;
  SimRankService& operator=(const SimRankService&) = delete;

  // ---- Writer side -------------------------------------------------------

  /// Enqueues one update. kBlock: waits for queue space; kReject: returns
  /// ResourceExhausted when full. Returns FailedPrecondition after Stop().
  /// Acceptance is not validation — an update invalid against the graph
  /// state it meets (duplicate insert, absent delete) is skipped by the
  /// applier and counted in stats().failed.
  Status Submit(const graph::EdgeUpdate& update);

  /// Enqueues a sequence of updates (stops at the first rejection).
  Status SubmitBatch(const std::vector<graph::EdgeUpdate>& updates);

  /// Barrier: returns once every update accepted before the call has been
  /// applied and published. Safe from any thread, including after Stop().
  Status Flush();

  /// Drains every queued update, publishes the final epoch, and joins the
  /// applier thread. Idempotent; subsequent Submits fail. Reads remain
  /// valid forever (they serve the last published snapshot).
  void Stop();

  // ---- Replication (primary → replica applied-batch stream) --------------

  /// Registers the applied-stream observer (nullptr clears it) and
  /// returns the published epoch at registration: every batch with a
  /// larger sequence WILL reach the new listener, none with a smaller one
  /// will (the exact registration epoch may be delivered once more if the
  /// applier raced the swap). Batches applied before registration are not
  /// replayed — pair the returned epoch with an external backlog
  /// (net::ReplicationLog::SeedFloor) for catch-up bookkeeping.
  std::uint64_t SetAppliedBatchListener(AppliedBatchListener listener);

  /// Replica mode only: applies one primary batch synchronously on the
  /// caller's thread and publishes epoch `seq`. Batches must arrive in
  /// order — `seq` must be exactly the current epoch + 1, or the call
  /// fails with FailedPrecondition and applies nothing (the replication
  /// client re-subscribes from its last applied sequence). Safe against
  /// concurrent readers (epoch snapshots), but callers must serialize
  /// themselves only through the internal mutex — one stream per replica.
  Status ApplyReplicated(std::uint64_t seq,
                         const std::vector<graph::EdgeUpdate>& batch);

  /// True for services built with CreateReplica.
  bool is_replica() const { return replica_; }

  // ---- Reader side (never blocks behind updates) -------------------------

  /// Pins the latest published snapshot.
  std::shared_ptr<const EpochSnapshot> Snapshot() const;

  /// SimRank score of (a, b) in the latest published epoch.
  Result<double> Score(graph::NodeId a, graph::NodeId b) const;

  /// Top-k most similar nodes to `query`, served from the cache when the
  /// affected-area invalidation has kept the entry warm.
  Result<std::vector<core::ScoredPair>> TopKFor(graph::NodeId query,
                                                std::size_t k) const;

  /// Top-k highest-scoring distinct pairs of the latest published epoch.
  std::vector<core::ScoredPair> TopKPairs(std::size_t k) const;

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }

 private:
  SimRankService(core::DynamicSimRank index, const ServiceOptions& options,
                 bool replica);

  void ApplierLoop();
  /// Applies one drained batch (coalesced, with unit-update fallback on
  /// invalid updates), publishes the resulting epoch, and notifies the
  /// applied-batch listener.
  void ApplyAndPublish(const std::vector<graph::EdgeUpdate>& batch);
  /// Publishes an epoch: runs the tier policy, snapshots graph + scores +
  /// top-k index, re-ranking index entries and invalidating cached
  /// queries for exactly the rows the batch wrote (the store's touched-row
  /// delta, which already holds every row the tier policy demoted).
  /// Returns the epoch.
  std::uint64_t Publish();
  /// Tier policy (applier, inside Publish BEFORE the touched-row capture,
  /// and once at Create): demotes dense rows to the sparse layout — every
  /// row when `all_touched`, else the rows the batch wrote. Reads play no
  /// part. Demoted rows are already in the touched delta, so the single
  /// re-rank / invalidation pass downstream covers them too.
  void ApplyTierPolicy(bool all_touched);
  /// Reads the store's, graph's and index's cumulative accounting into
  /// applier_stats_ and freezes that into the epoch being published.
  void CaptureStats(EpochSnapshot* next);

  const ServiceOptions options_;
  const bool replica_;
  core::DynamicSimRank index_;  // applier thread only, once started

  /// A queued update plus its enqueue timestamp (steady-clock ns), so the
  /// applier can charge each update's queue wait to the stats histogram.
  struct QueuedUpdate {
    graph::EdgeUpdate update;
    std::uint64_t enqueue_ns;
  };

  mutable std::mutex mu_;  // queue, sequence counters, lifecycle
  std::condition_variable queue_not_full_;
  std::condition_variable queue_not_empty_;
  std::condition_variable progress_;  // Flush waiters
  std::deque<QueuedUpdate> queue_;
  std::uint64_t accepted_ = 0;   // updates ever enqueued
  std::uint64_t published_ = 0;  // updates applied AND visible to readers
  std::uint64_t rejected_ = 0;   // updates refused by backpressure
  bool stopping_ = false;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EpochSnapshot> snapshot_;

  // Applied-stream observer (replication fan-out). Written by
  // SetAppliedBatchListener, read by the applier once per batch.
  mutable std::mutex listener_mu_;
  AppliedBatchListener listener_;

  mutable TopKQueryCache cache_;
  TopKIndex topk_index_;  // applier thread only; readers use snapshot views

  const bool tiering_;                    // options_.sparse.enabled
  std::vector<std::int32_t> keep_cols_;  // applier scratch for SparsifyRow

  // Applier-private counters (applier thread, or the serialized
  // replication caller); each publish copies them into its snapshot.
  ServiceStats applier_stats_;
  // Reader-side counters, bumped by the const query path (relaxed: read
  // by stats() only).
  mutable std::atomic<std::uint64_t> topk_served_{0};
  mutable std::atomic<std::uint64_t> topk_fallbacks_{0};
  mutable std::atomic<std::uint64_t> topk_pairs_served_{0};
  mutable std::atomic<std::uint64_t> topk_pairs_fallbacks_{0};
  // Latency histograms (relaxed atomics inside; applier records, stats()
  // snapshots from any thread). Always on — one bucket fetch_add per
  // sample — independent of whether event tracing is enabled.
  obs::Histogram queue_wait_hist_;
  obs::Histogram apply_hist_;

  std::mutex stop_mu_;   // serializes Stop() callers around the join
  std::thread applier_;  // last: joins in Stop()
};

}  // namespace incsr::service

#endif  // INCSR_SERVICE_SIMRANK_SERVICE_H_

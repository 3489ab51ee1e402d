#include "service/simrank_service.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/scheduler.h"
#include "obs/trace.h"

namespace incsr::service {

// Accepting form, so a NaN fails it.
Status ValidateOptions(const ServiceOptions& options) {
  if (options.queue_capacity == 0 || options.max_batch == 0) {
    return Status::InvalidArgument("queue_capacity and max_batch must be >= 1");
  }
  const SparsityPolicy& sparse = options.sparse;
  if (!(sparse.epsilon >= 0.0 && std::isfinite(sparse.epsilon) &&
        sparse.max_density > 0.0 && sparse.max_density <= 1.0)) {
    return Status::InvalidArgument(
        "sparse.epsilon must be finite and >= 0, max_density in (0, 1]");
  }
  return Status::OK();
}

Result<std::unique_ptr<SimRankService>> SimRankService::Create(
    core::DynamicSimRank index, const ServiceOptions& options) {
  INCSR_RETURN_IF_ERROR(ValidateOptions(options));
  return std::unique_ptr<SimRankService>(
      new SimRankService(std::move(index), options, /*replica=*/false));
}

Result<std::unique_ptr<SimRankService>> SimRankService::CreateReplica(
    core::DynamicSimRank index, const ServiceOptions& options) {
  INCSR_RETURN_IF_ERROR(ValidateOptions(options));
  return std::unique_ptr<SimRankService>(
      new SimRankService(std::move(index), options, /*replica=*/true));
}

SimRankService::SimRankService(core::DynamicSimRank index,
                               const ServiceOptions& options, bool replica)
    : options_(options),
      replica_(replica),
      index_(std::move(index)),
      cache_(options.cache_capacity),
      topk_index_(options.topk_index_capacity),
      tiering_(options.sparse.enabled) {
  if (tiering_) {
    la::SparsityConfig config;
    config.epsilon = options_.sparse.epsilon;
    config.max_density = options_.sparse.max_density;
    // First-order propagation through the C-contractive iteration: a
    // stored perturbation of δ can grow to at most δ/(1−C) in S.
    config.error_amplification = 1.0 / (1.0 - index_.options().damping);
    index_.mutable_score_store()->set_sparsity(config);
  }
  auto initial = std::make_shared<EpochSnapshot>();
  initial->epoch = 0;
  // Initial tier pass BEFORE the first publish and index build: a
  // dense-built store starts at the policy's chosen mix, and the index
  // below ranks the post-demotion bytes (keep sets are empty on purpose —
  // entries do not exist yet).
  if (tiering_) ApplyTierPolicy(/*all_touched=*/true);
  initial->graph = index_.SnapshotGraph();
  // Page-root copy, not a matrix copy; ends the writer's ownership so the
  // first batch copy-on-writes exactly the rows it touches.
  initial->scores = index_.mutable_score_store()->Publish();
  // Initial index build is the one pass over every row (O(n² log c)
  // dense, O(Σ nnz log c + n·c log c) sparse); every later epoch
  // re-ranks only the rows its batch touched.
  topk_index_.RebuildAll(index_.scores());
  initial->topk = topk_index_.Publish();
  CaptureStats(initial.get());
  snapshot_ = std::move(initial);
  // A replica has no ingest pipeline: its state advances only through
  // ApplyReplicated, synchronously on the replication stream's thread.
  if (!replica_) {
    applier_ = std::thread(&SimRankService::ApplierLoop, this);
  }
}

SimRankService::~SimRankService() { Stop(); }

Status SimRankService::Submit(const graph::EdgeUpdate& update) {
  if (replica_) {
    return Status::NotSupported(
        "replica is read-only: submit updates to the primary");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    return Status::FailedPrecondition("SimRankService is stopped");
  }
  if (queue_.size() >= options_.queue_capacity) {
    if (options_.backpressure == BackpressurePolicy::kReject) {
      ++rejected_;
      return Status::ResourceExhausted("ingest queue full");
    }
    queue_not_full_.wait(lock, [this] {
      return stopping_ || queue_.size() < options_.queue_capacity;
    });
    if (stopping_) {
      ++rejected_;
      return Status::FailedPrecondition("SimRankService stopped while waiting");
    }
  }
  queue_.push_back({update, obs::Tracer::NowNs()});
  ++accepted_;
  queue_not_empty_.notify_one();
  return Status::OK();
}

Status SimRankService::SubmitBatch(
    const std::vector<graph::EdgeUpdate>& updates) {
  for (const graph::EdgeUpdate& update : updates) {
    INCSR_RETURN_IF_ERROR(Submit(update));
  }
  return Status::OK();
}

Status SimRankService::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t target = accepted_;
  progress_.wait(lock, [this, target] { return published_ >= target; });
  return Status::OK();
}

void SimRankService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    queue_not_empty_.notify_all();
    queue_not_full_.notify_all();
  }
  // stop_mu_ serializes concurrent Stop() callers around the join.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (applier_.joinable()) applier_.join();
}

std::uint64_t SimRankService::SetAppliedBatchListener(
    AppliedBatchListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
  // Epoch read under listener_mu_: any batch the applier already handed
  // to the OLD listener published before this lock, so its epoch is
  // visible here — the returned value is a floor below which the new
  // listener will never be invoked (it may still see this exact epoch
  // again if the applier raced the swap, hence the log's duplicate drop).
  std::lock_guard<std::mutex> snapshot_lock(snapshot_mu_);
  return snapshot_->epoch;
}

Status SimRankService::ApplyReplicated(
    std::uint64_t seq, const std::vector<graph::EdgeUpdate>& batch) {
  if (!replica_) {
    return Status::FailedPrecondition(
        "ApplyReplicated requires a CreateReplica service");
  }
  // stop_mu_ doubles as the replication-stream serializer: one batch at a
  // time, and Stop() (which takes it too) cannot interleave with an apply.
  std::lock_guard<std::mutex> apply_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return Status::FailedPrecondition("replica service is stopped");
    }
  }
  std::uint64_t current;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    current = snapshot_->epoch;
  }
  if (seq != current + 1) {
    return Status::FailedPrecondition(
        "replication sequence gap: expected seq " +
        std::to_string(current + 1) + ", got " + std::to_string(seq));
  }
  ApplyAndPublish(batch);
  std::lock_guard<std::mutex> lock(mu_);
  accepted_ += batch.size();
  published_ += batch.size();
  progress_.notify_all();
  return Status::OK();
}

std::shared_ptr<const EpochSnapshot> SimRankService::Snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<double> SimRankService::Score(graph::NodeId a, graph::NodeId b) const {
  std::shared_ptr<const EpochSnapshot> snap = Snapshot();
  if (!snap->graph.HasNode(a) || !snap->graph.HasNode(b)) {
    return Status::OutOfRange("Score: node out of range");
  }
  return snap->scores(static_cast<std::size_t>(a),
                      static_cast<std::size_t>(b));
}

Result<std::vector<core::ScoredPair>> SimRankService::TopKFor(
    graph::NodeId query, std::size_t k) const {
  std::vector<core::ScoredPair> results;
  if (cache_.Lookup(query, k, &results)) return results;
  std::shared_ptr<const EpochSnapshot> snap = Snapshot();
  if (!snap->graph.HasNode(query)) {
    return Status::OutOfRange("TopKFor: node out of range");
  }
  if (snap->topk.Serve(query, k, &results)) {
    // O(k) index read, bitwise identical to the scan below: the entry is
    // the contract-ordered prefix of this same snapshot's row.
    topk_served_.fetch_add(1, std::memory_order_relaxed);
  } else {
    results = core::TopKForOf(snap->scores, query, k);
    if (topk_index_.enabled()) {
      topk_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cache_.Insert(query, k, snap->epoch, results);
  return results;
}

std::vector<core::ScoredPair> SimRankService::TopKPairs(std::size_t k) const {
  std::vector<core::ScoredPair> results;
  if (cache_.LookupPairs(k, &results)) return results;
  std::shared_ptr<const EpochSnapshot> snap = Snapshot();
  if (snap->topk.ServePairs(k, &results)) {
    // K-way merge over the per-node entries, bitwise identical to the
    // scan below: both emit the same strict total order over the same
    // snapshot bytes (see TopKIndex::View::ServePairs).
    topk_pairs_served_.fetch_add(1, std::memory_order_relaxed);
  } else {
    results = core::TopKPairsOf(snap->scores, k);
    if (topk_index_.enabled()) {
      topk_pairs_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  cache_.InsertPairs(k, snap->epoch, results);
  return results;
}

ServiceStats SimRankService::stats() const {
  // The applier's counters as of the latest publish, then the fields
  // other threads write.
  ServiceStats out = Snapshot()->stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.submitted = accepted_;
    out.rejected = rejected_;
    out.queue_depth = queue_.size();
  }
  out.topk_index_served = topk_served_.load(std::memory_order_relaxed);
  out.topk_index_fallbacks = topk_fallbacks_.load(std::memory_order_relaxed);
  out.topk_pairs_served = topk_pairs_served_.load(std::memory_order_relaxed);
  out.topk_pairs_fallbacks =
      topk_pairs_fallbacks_.load(std::memory_order_relaxed);
  out.queue_wait_ns = queue_wait_hist_.snapshot();
  out.apply_ns = apply_hist_.snapshot();
  out.cache = cache_.stats();
  return out;
}

void SimRankService::ApplierLoop() {
  // Home this applier's parallel kernels on its shard group's worker
  // neighborhood (no-op when the service was created unbound).
  Scheduler::BindCurrentThreadToGroup(options_.scheduler_group);
  std::vector<graph::EdgeUpdate> batch;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    {
      // queue.idle: applier parked with nothing to apply — the phase that
      // distinguishes "underloaded" from "kernel-bound" in a trace.
      TRACE_SCOPE(kQueueIdle);
      queue_not_empty_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
    }
    if (queue_.empty()) break;  // stopping, fully drained
    batch.clear();
    const std::uint64_t drain_ns = obs::Tracer::NowNs();
    std::uint64_t waited_ns = 0;
    while (!queue_.empty() && batch.size() < options_.max_batch) {
      const QueuedUpdate& queued = queue_.front();
      // Saturate: enqueue stamped outside mu_, so a racing Submit can be a
      // hair "later" than this drain's clock read.
      const std::uint64_t wait =
          drain_ns > queued.enqueue_ns ? drain_ns - queued.enqueue_ns : 0;
      queue_wait_hist_.Record(wait);
      waited_ns += wait;
      batch.push_back(queued.update);
      queue_.pop_front();
    }
    // One counter event per BATCH (value = summed wait, arg = updates
    // drained): bounds trace volume while the histogram above keeps the
    // full per-update distribution.
    TRACE_COUNTER_ARG(kQueueWait, batch.size(), waited_ns);
    queue_not_full_.notify_all();
    lock.unlock();

    ApplyAndPublish(batch);

    lock.lock();
    published_ += batch.size();
    progress_.notify_all();
  }
}

void SimRankService::ApplyAndPublish(
    const std::vector<graph::EdgeUpdate>& batch) {
  TRACE_SCOPE_ARG(kBatchApply, batch.size());
  const std::uint64_t apply_start_ns = obs::Tracer::NowNs();
  // Pre-validate the drained batch against the applier's authoritative
  // graph (plus an overlay of the batch's own earlier effects): updates
  // that are invalid in the state they meet — duplicate inserts, absent
  // deletes, bad node ids — are dropped and counted, so the coalesced
  // apply below runs on a batch that cannot fail halfway.
  std::vector<graph::EdgeUpdate> valid;
  valid.reserve(batch.size());
  {
    TRACE_SCOPE_ARG(kCoalesce, batch.size());
    std::unordered_map<std::uint64_t, bool> overlay;  // key -> edge present
    const graph::DynamicDiGraph& current = index_.graph();
    for (const graph::EdgeUpdate& update : batch) {
      if (!current.HasNode(update.src) || !current.HasNode(update.dst)) {
        ++applier_stats_.failed;
        continue;
      }
      const std::uint64_t key = graph::EdgeKey(update.src, update.dst);
      auto it = overlay.find(key);
      const bool present = it != overlay.end()
                               ? it->second
                               : current.HasEdge(update.src, update.dst);
      const bool want_insert = update.kind == graph::UpdateKind::kInsert;
      if (present == want_insert) {
        ++applier_stats_.failed;
        continue;
      }
      overlay[key] = want_insert;
      valid.push_back(update);
    }
  }

  if (!valid.empty()) {
    TRACE_SCOPE_ARG(kKernelApply, valid.size());
    Status applied =
        index_.algorithm() == core::UpdateAlgorithm::kIncSR
            ? index_.ApplyBatchCoalesced(valid)
            : index_.ApplyBatch(valid);
    if (applied.ok()) {
      applier_stats_.applied += valid.size();
    } else {
      // Should be unreachable after pre-validation; recover by re-driving
      // the batch unit-by-unit (idempotent per edge: an update the
      // coalesced prefix already applied fails its own validation and is
      // skipped). The store's touched-row record spans every write of the
      // recovery too, so Publish() below stays exact.
      for (const graph::EdgeUpdate& update : valid) {
        if (index_.ApplyUpdate(update).ok()) {
          ++applier_stats_.applied;
        } else {
          ++applier_stats_.failed;
        }
      }
    }
  }
  ++applier_stats_.batches;
  const std::uint64_t epoch = Publish();
  apply_hist_.Record(obs::Tracer::NowNs() - apply_start_ns);
  TRACE_INSTANT(kEpochPublished, epoch, valid.size());
  // Replication fan-out: ship the batch exactly as applied (validated, in
  // apply order, empty batches included — they still publish an epoch).
  // A replica replaying this stream against the same initial state
  // reproduces every epoch bitwise.
  AppliedBatchListener listener;
  {
    std::lock_guard<std::mutex> lock(listener_mu_);
    listener = listener_;
  }
  if (listener) listener(epoch, valid);
}

std::uint64_t SimRankService::Publish() {
  TRACE_SCOPE(kPublish);
  // The tier policy runs FIRST, before the touched-row capture: a row it
  // demotes records itself into the store's touched delta (a replaced
  // unowned block), so the one re-rank + invalidation pass below covers
  // batch rows and demoted rows alike — and the index entries it rebuilds
  // rank the FINAL (post-sparsification) bytes.
  {
    TRACE_SCOPE(kTierPolicy);
    ApplyTierPolicy(index_.AllScoreRowsTouched());
  }

  auto next = std::make_shared<EpochSnapshot>();
  {
    TRACE_SCOPE(kGraphSnapshot);
    next->graph = index_.SnapshotGraph();
  }
  // The batch's ground-truth delta: the rows it actually wrote (the score
  // store's COW-clone record), captured before Publish() resets it. Exact
  // for every algorithm — Inc-SR, coalesced groups, Inc-uSR's dense
  // scatter, and the unit-update recovery path alike.
  const bool all_touched = index_.AllScoreRowsTouched();
  std::vector<std::int32_t> touched;
  if (!all_touched) {
    const std::span<const std::int32_t> rows = index_.TouchedScoreRows();
    touched.assign(rows.begin(), rows.end());
  }
  // The batch's writes already COW-cloned exactly the affected rows and
  // their pages; publishing copies ⌈n/256⌉ page pointers.
  {
    TRACE_SCOPE(kStorePublish);
    next->scores = index_.mutable_score_store()->Publish();
  }
  if (topk_index_.enabled()) {
    // Incremental maintenance rule: re-rank ONLY the touched rows, each
    // by one scan of its already-materialized COW'd row. Untouched
    // entries stay valid — their rows' bytes did not change.
    if (all_touched) {
      topk_index_.RebuildAll(index_.scores());
    } else {
      topk_index_.RebuildRows(index_.scores(), touched);
    }
    next->topk = topk_index_.Publish();
  }
  // Only this thread publishes, so the epoch sequence is applier-private.
  const std::uint64_t epoch = applier_stats_.epoch + 1;
  applier_stats_.epoch = epoch;
  next->epoch = epoch;
  CaptureStats(next.get());
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(next);
  }
  // Invalidate after the swap: a reader that cached from the outgoing
  // snapshot either had its node erased here or (if it inserts later) is
  // rejected by the cache's epoch admission check.
  {
    TRACE_SCOPE_ARG(kCacheInvalidate, touched.size());
    if (all_touched) {
      cache_.InvalidateAll(epoch);
    } else {
      cache_.OnPublish(epoch, std::span<const std::int32_t>(touched));
    }
  }
  return epoch;
}

void SimRankService::ApplyTierPolicy(bool all_touched) {
  if (!tiering_) return;
  la::ScoreStore* store = index_.mutable_score_store();
  const std::size_t n = store->rows();
  if (n == 0) return;
  const auto consider_demote = [&](std::size_t row) {
    if (store->RowIsSparse(row)) return;
    // Protect the row's current index columns: index-served top-k keeps
    // reading exactly stored values. For a batch-touched row the entry is
    // one epoch stale, which is safe — the publish re-ranks it from the
    // final bytes right after this pass.
    keep_cols_.clear();
    for (const core::ScoredPair& item : topk_index_.EntryItems(row)) {
      keep_cols_.push_back(item.b);
    }
    if (store->SparsifyRow(row, keep_cols_)) {
      ++applier_stats_.tier_demotions;
    }
  };
  if (all_touched) {
    // Fresh store / geometry change: one pass over every row.
    for (std::size_t row = 0; row < n; ++row) consider_demote(row);
    return;
  }
  // Batch-touched rows that the write path left dense (COW'd dense rows,
  // spills past the max_density gate). Most touched sparse rows stayed in
  // their sparse tier, so consider_demote early-returns on them and this
  // pass costs almost nothing. Iterate a COPY — SparsifyRow appends to the
  // live list.
  const std::vector<std::int32_t> touched = store->touched_rows();
  for (std::int32_t row : touched) {
    consider_demote(static_cast<std::size_t>(row));
  }
}

void SimRankService::CaptureStats(EpochSnapshot* next) {
  const la::ScoreStore& store = index_.scores();
  const la::ScoreStoreStats& store_stats = store.stats();
  ServiceStats& out = applier_stats_;
  out.rows_published = store_stats.rows_copied;
  out.bytes_published = store_stats.bytes_copied;
  out.rows_sparse = store_stats.rows_sparse;
  out.rows_dense = store.rows() - store_stats.rows_sparse;
  out.bytes_saved = store.bytes_saved();
  out.sparse_eps_drops = store_stats.eps_drops;
  out.sparse_max_error_bound = store_stats.max_error_bound;
  out.rows_spilled_dense = store_stats.rows_spilled_dense;
  out.sparse_write_merges = store_stats.sparse_write_merges;
  out.graph_bytes_copied = index_.graph().cow_bytes_copied();
  out.topk_index_rows_reranked = topk_index_.rows_reranked();
  out.topk_index_rows_patched = topk_index_.rows_patched();
  next->stats = out;
}

}  // namespace incsr::service

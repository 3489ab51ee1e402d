#include "workloads.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "incsr/incsr.h"
#include "support.h"

namespace incsr::e2e {
namespace {

constexpr std::uint64_t kGraphSeed = 2014;
constexpr double kDamping = 0.6;
// C^(K+1) < 1e-13, so incremental updates stay on the fixed point the
// residual check tests (K = 15 would leave ~1e-4 of truncation error).
constexpr int kIterations = 60;
constexpr std::size_t kTopK = 10;
// The service's max_batch: the closed write burst is queued whole, so its
// batches are exactly this long and the work per run is deterministic.
constexpr std::size_t kMaxBatch = 64;
constexpr double kZipfTheta = 1.0;
constexpr int kSetupRepeats = 3;
// Sparse workloads draw their edges from one 4096-node citation universe
// placed inside the larger node space, so the affected area of every
// update is the same at any n; only the O(n) passes grow with n.
constexpr std::size_t kSparseStreamNodes = 4096;
constexpr std::size_t kSparseWarmEdges = 4000;
constexpr std::size_t kSparseIndexCapacity = 16;
constexpr double kDenseBaseFraction = 0.6;
// Every run's closed write burst after its primer: 16 batches of exactly
// kMaxBatch.
constexpr std::size_t kBurstUpdates = 1024;
constexpr std::size_t kSweepReplay = 1024;
constexpr std::size_t kLayerReads = 20000;
constexpr std::size_t kLayerRpcReads = 5000;
constexpr std::size_t kLayerRpcSubmits = 32;
constexpr std::size_t kCheckNodes = 64;
constexpr std::size_t kResidualRows = 16;
constexpr std::size_t kReadRowSamples = 256;

using UpdateSpan = std::span<const graph::EdgeUpdate>;

/// The generated inputs: a de-duplicated citation insert stream in arrival
/// order, and the node ids under which the run sees it. The first `base`
/// updates are built into the index at set-up; each later phase claims the
/// next slice, so no update is ever applied twice.
struct Inputs {
  std::vector<graph::EdgeUpdate> stream;
  /// Generator id -> node id. Generator ids follow arrival, so a low one
  /// is an old, well-cited node.
  std::vector<graph::NodeId> node_of;
  std::size_t base = 0;
  std::size_t next = 0;

  UpdateSpan Take(std::size_t count) {
    INCSR_CHECK(next + count <= stream.size(),
                "citation stream too short: %zu updates needed, %zu left "
                "(lower --seconds)",
                count, stream.size() - next);
    const UpdateSpan out = UpdateSpan(stream).subspan(next, count);
    next += count;
    return out;
  }
};

/// The citation graph comes from a fixed generator seed, so every run of a
/// workload does the same work: preferential attachment grows hubs of very
/// different sizes from one generator seed to the next, and update cost
/// follows the hubs. `seed` rotates the node ids by a random offset mod
/// `nodes`: each seed sees an isomorphic graph under different ids. A
/// rotation keeps the hot nodes' rows and index entries next to each other
/// in memory; a random permutation scattered them, and read throughput
/// then varied ±25 % with the seed.
Inputs MakeInputs(StoreKind store, std::size_t nodes, std::uint64_t seed) {
  graph::CitationModelParams params;
  params.num_nodes = store == StoreKind::kDense ? nodes : kSparseStreamNodes;
  params.seed = kGraphSeed;
  auto edges = graph::PreferentialCitation(params);
  INCSR_CHECK(edges.ok(), "citation generator failed: %s",
              edges.status().ToString().c_str());
  Inputs in;
  Rng rng(seed);
  const std::size_t offset = rng.NextBounded(nodes);
  in.node_of.resize(nodes);
  for (std::size_t v = 0; v < nodes; ++v) {
    in.node_of[v] = static_cast<graph::NodeId>((v + offset) % nodes);
  }
  std::unordered_set<std::uint64_t> seen;
  for (const graph::TimestampedEdge& e : *edges) {
    if (seen.insert(graph::EdgeKey(e.edge.src, e.edge.dst)).second) {
      in.stream.push_back({graph::UpdateKind::kInsert,
                           in.node_of[static_cast<std::size_t>(e.edge.src)],
                           in.node_of[static_cast<std::size_t>(e.edge.dst)]});
    }
  }
  in.base = store == StoreKind::kDense
                ? static_cast<std::size_t>(
                      static_cast<double>(in.stream.size()) *
                      kDenseBaseFraction)
                : kSparseWarmEdges;
  INCSR_CHECK(in.base <= in.stream.size(), "stream shorter than its base");
  in.next = in.base;
  return in;
}

/// P(rank r) ∝ 1/(r+1)^θ over ranks [0, n); rank r queries the node with
/// generator id r, so the hot queries land on the old, well-cited nodes.
class ZipfSampler {
 public:
  ZipfSampler(const std::vector<graph::NodeId>& node_of, double theta)
      : node_of_(node_of), cdf_(node_of.size()) {
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  graph::NodeId Next(Rng* rng) const {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), rng->NextDouble());
    return node_of_[std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1)];
  }

 private:
  std::vector<graph::NodeId> node_of_;
  std::vector<double> cdf_;
};

simrank::SimRankOptions EngineOptions() {
  simrank::SimRankOptions options;
  options.damping = kDamping;
  options.iterations = kIterations;
  return options;
}

service::ServiceOptions ServiceOptionsFor(StoreKind store) {
  service::ServiceOptions options;
  options.max_batch = kMaxBatch;
  if (store == StoreKind::kSparse) {
    options.topk_index_capacity = kSparseIndexCapacity;
    options.sparse.enabled = true;
    options.sparse.epsilon = 0.0;
  }
  return options;
}

core::DynamicSimRank BuildIndex(StoreKind store, std::size_t nodes,
                                const Inputs& in) {
  const std::vector<graph::EdgeUpdate> prefix(in.stream.begin(),
                                              in.stream.begin() + in.base);
  if (store == StoreKind::kDense) {
    graph::DynamicDiGraph graph(nodes);
    for (const graph::EdgeUpdate& u : prefix) {
      INCSR_CHECK(graph.AddEdge(u.src, u.dst).ok(), "base edge rejected");
    }
    auto index =
        core::DynamicSimRank::Create(std::move(graph), EngineOptions());
    INCSR_CHECK(index.ok(), "Create failed: %s",
                index.status().ToString().c_str());
    return std::move(index).value();
  }
  auto index = core::DynamicSimRank::CreateIsolated(nodes, EngineOptions());
  INCSR_CHECK(index.ok(), "CreateIsolated failed: %s",
              index.status().ToString().c_str());
  const Status warmed = index->ApplyBatchCoalesced(prefix);
  INCSR_CHECK(warmed.ok(), "warm-up failed: %s", warmed.ToString().c_str());
  return std::move(index).value();
}

struct Serving {
  std::unique_ptr<service::SimRankService> service;
  std::unique_ptr<net::IncSrServer> server;

  void Reset() {
    server.reset();  // the server points at the service: stop it first
    service.reset();
  }
};

Serving SetUp(const WorkloadSpec& spec, const Inputs& in) {
  Serving serving;
  auto created = service::SimRankService::Create(
      BuildIndex(spec.store, spec.nodes, in), ServiceOptionsFor(spec.store));
  INCSR_CHECK(created.ok(), "service Create failed: %s",
              created.status().ToString().c_str());
  serving.service = std::move(created).value();
  if (spec.wire) {
    auto server = net::IncSrServer::Serve(serving.service.get());
    INCSR_CHECK(server.ok(), "server failed: %s",
                server.status().ToString().c_str());
    serving.server = std::move(server).value();
  }
  return serving;
}

/// Holds the applier inside the applied-batch listener so a whole burst
/// can be queued before it drains any of it.
class ApplierGate {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  /// Applier thread: parks on the first batch after Arm() until Release().
  void OnBatch() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    armed_ = false;
    holding_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !holding_; });
  }
  void AwaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return holding_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    holding_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool holding_ = false;
};

/// Visibility lag of the window's updates: when each was due to be
/// submitted, and when the epoch holding it was published. The key map is
/// filled before the run and only read while the applier runs.
struct LagBook {
  explicit LagBook(UpdateSpan window)
      : due_ns(window.size(), 0), published_ns(window.size(), 0) {
    for (std::size_t i = 0; i < window.size(); ++i) {
      index_of.emplace(graph::EdgeKey(window[i].src, window[i].dst), i);
    }
  }
  void OnApplied(const std::vector<graph::EdgeUpdate>& batch) {
    const std::uint64_t now = NowNs();
    for (const graph::EdgeUpdate& u : batch) {
      const auto it = index_of.find(graph::EdgeKey(u.src, u.dst));
      if (it != index_of.end()) published_ns[it->second] = now;
    }
  }

  std::unordered_map<std::uint64_t, std::size_t> index_of;
  std::vector<std::uint64_t> due_ns;        // writer thread
  std::vector<std::uint64_t> published_ns;  // applier thread
};

bool Query(service::SimRankService* service, net::IncSrClient* client,
           graph::NodeId node) {
  if (client != nullptr) {
    auto got = client->TopKFor(node, kTopK);
    return got.ok() && got->size() == kTopK;
  }
  auto got = service->TopKFor(node, kTopK);
  return got.ok() && got->size() == kTopK;
}

bool SubmitOne(service::SimRankService* service, net::IncSrClient* client,
               const graph::EdgeUpdate& update) {
  if (client != nullptr) {
    auto got = client->Submit({update});
    return got.ok() && got->status == net::wire::RpcStatus::kOk &&
           got->accepted == 1;
  }
  return service->Submit(update).ok();
}

struct WriteBurstOutcome {
  double ops_s = 0.0;
  /// Mean apply_ns of the burst's batches (the primer's excluded).
  double apply_mean_ns = 0.0;
  std::uint64_t failed = 0;
};

/// Closed write burst: updates[0] is a primer whose batch parks the
/// applier (listener must call gate->OnBatch()); the rest are queued whole
/// and released at once.
WriteBurstOutcome WriteBurst(service::SimRankService* service,
                             ApplierGate* gate, UpdateSpan updates) {
  WriteBurstOutcome out;
  gate->Arm();
  INCSR_CHECK(service->Submit(updates[0]).ok(), "burst primer refused");
  gate->AwaitHeld();
  const service::ServiceStats before = service->stats();
  for (const graph::EdgeUpdate& u : updates.subspan(1)) {
    if (!service->Submit(u).ok()) ++out.failed;
  }
  const std::uint64_t start = NowNs();
  gate->Release();
  INCSR_CHECK(service->Flush().ok(), "flush failed");
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  const service::ServiceStats after = service->stats();
  out.ops_s = static_cast<double>(updates.size() - 1) / seconds;
  out.apply_mean_ns =
      static_cast<double>(after.apply_ns.sum - before.apply_ns.sum) /
      static_cast<double>(std::max<std::uint64_t>(
          after.apply_ns.count - before.apply_ns.count, 1));
  return out;
}

bool SameBits(const std::vector<core::ScoredPair>& x,
              const std::vector<core::ScoredPair>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b ||
        std::bit_cast<std::uint64_t>(x[i].score) !=
            std::bit_cast<std::uint64_t>(y[i].score)) {
      return false;
    }
  }
  return true;
}

std::vector<graph::NodeId> CheckNodes(const WorkloadSpec& spec,
                                      const ZipfSampler& zipf,
                                      std::uint64_t seed) {
  Rng rng(seed ^ 0x5EED'C4EC'0000'0001ULL);
  std::vector<graph::NodeId> nodes;
  for (std::size_t i = 0; i < kCheckNodes; ++i) {
    nodes.push_back(i % 2 == 0 ? zipf.Next(&rng)
                               : static_cast<graph::NodeId>(
                                     rng.NextBounded(spec.nodes)));
  }
  return nodes;
}

/// Row i of the fixed-point residual |S − (C·Q·S·Qᵀ + (1−C)·I)|, from the
/// graph view and ReadRow only: O(|I(i)|·n + m).
double ResidualRow(const graph::DynamicDiGraph::View& graph,
                   const la::ScoreStore::View& scores, graph::NodeId i) {
  const std::size_t n = graph.num_nodes();
  std::vector<double> qs(n, 0.0);  // row i of Q·S
  la::Vector scratch;
  const std::span<const graph::NodeId> in_i = graph.InNeighbors(i);
  for (graph::NodeId a : in_i) {
    const double* row = scores.ReadRow(static_cast<std::size_t>(a), &scratch);
    for (std::size_t j = 0; j < n; ++j) qs[j] += row[j];
  }
  if (!in_i.empty()) {
    for (double& v : qs) v /= static_cast<double>(in_i.size());
  }
  const double* s_i = scores.ReadRow(static_cast<std::size_t>(i), &scratch);
  double worst = 0.0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::span<const graph::NodeId> in_b =
        graph.InNeighbors(static_cast<graph::NodeId>(b));
    double model = 0.0;
    if (!in_b.empty()) {
      for (graph::NodeId c : in_b) model += qs[static_cast<std::size_t>(c)];
      model *= kDamping / static_cast<double>(in_b.size());
    }
    if (b == static_cast<std::size_t>(i)) model += 1.0 - kDamping;
    worst = std::max(worst, std::abs(s_i[b] - model));
  }
  return worst;
}

/// The output checks of every run, on the final published state (no
/// writes pending): accounting, TopKFor against TopKForOf on the pinned
/// snapshot bitwise, and the fixed-point residual on sampled rows.
bool CheckOutputs(const WorkloadSpec& spec, service::SimRankService* service,
                  std::uint64_t submitted, const ZipfSampler& zipf,
                  std::uint64_t seed) {
  const service::ServiceStats stats = service->stats();
  const bool accounting = stats.submitted == submitted &&
                          stats.applied == submitted && stats.failed == 0 &&
                          stats.rejected == 0;

  const std::shared_ptr<const service::EpochSnapshot> snap =
      service->Snapshot();
  std::size_t mismatches = 0;
  for (graph::NodeId node : CheckNodes(spec, zipf, seed)) {
    auto got = service->TopKFor(node, kTopK);
    if (!got.ok() ||
        !SameBits(*got, core::TopKForOf(snap->scores, node, kTopK))) {
      ++mismatches;
    }
  }

  std::vector<graph::NodeId> candidates;
  for (std::size_t v = 0; v < snap->graph.num_nodes(); ++v) {
    if (snap->graph.InDegree(static_cast<graph::NodeId>(v)) > 0) {
      candidates.push_back(static_cast<graph::NodeId>(v));
    }
  }
  Rng rng(seed ^ 0x7E51'D0A1'0000'0002ULL);
  double residual = 0.0;
  for (std::size_t r = 0; r < kResidualRows && !candidates.empty(); ++r) {
    const graph::NodeId row = candidates[rng.NextBounded(candidates.size())];
    residual = std::max(residual, ResidualRow(snap->graph, snap->scores, row));
  }
  const double tolerance = 1e-9 + 2.0 * stats.sparse_max_error_bound;

  std::printf(
      "check: accounting %s (submitted %llu, applied %llu, invalid %llu, "
      "rejected %llu); TopKFor bitwise %zu/%zu; residual %.3g (tolerance "
      "%.3g) over %zu rows\n",
      accounting ? "ok" : "FAILED",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.applied),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected),
      kCheckNodes - mismatches, kCheckNodes, residual, tolerance,
      std::min(kResidualRows, candidates.size()));
  return accounting && mismatches == 0 && residual <= tolerance;
}

/// The wire returns the in-process answer bitwise (same epoch: no writes
/// are pending when this runs).
bool CheckWire(const WorkloadSpec& spec, service::SimRankService* service,
               net::IncSrClient* client, const ZipfSampler& zipf,
               std::uint64_t seed) {
  std::size_t mismatches = 0;
  for (graph::NodeId node : CheckNodes(spec, zipf, seed)) {
    auto wire = client->TopKFor(node, kTopK);
    auto local = service->TopKFor(node, kTopK);
    if (!wire.ok() || !local.ok() || !SameBits(*wire, *local)) ++mismatches;
  }
  std::printf("check: wire TopKFor equals in-process %zu/%zu\n",
              kCheckNodes - mismatches, kCheckNodes);
  return mismatches == 0;
}

// ---- Traced per-layer replay ---------------------------------------------

struct ReplayTotals {
  std::size_t chunks = 0;
  std::size_t updates = 0;
  std::size_t rows_written = 0;
  std::uint64_t apply_ns = 0;
  std::uint64_t graph_ns = 0;
  std::uint64_t store_publish_ns = 0;
  std::uint64_t rerank_ns = 0;
  std::uint64_t topk_publish_ns = 0;
  std::uint64_t cow_bytes = 0;
  std::uint64_t sparse_merges = 0;
  std::uint64_t regions = 0;
  std::uint64_t steals = 0;

  double LayerNsPerChunk() const {
    return static_cast<double>(apply_ns + graph_ns + store_publish_ns +
                               rerank_ns + topk_publish_ns) /
           static_cast<double>(std::max<std::size_t>(chunks, 1));
  }
};

/// Applies `updates` in kMaxBatch chunks through the calls a service
/// publish makes — kernel apply, graph snapshot, store publish, top-k
/// re-rank of the touched rows, index publish — timing each. `topk` null
/// replays the core and store only. The store must have been published
/// once, so touched rows are tracked.
ReplayTotals Replay(core::DynamicSimRank* index, service::TopKIndex* topk,
                    UpdateSpan updates) {
  ReplayTotals t;
  const SchedulerStats sched_before = Scheduler::Global().stats();
  std::vector<graph::EdgeUpdate> chunk;
  std::vector<std::int32_t> rows;
  for (std::size_t begin = 0; begin < updates.size(); begin += kMaxBatch) {
    const UpdateSpan part =
        updates.subspan(begin, std::min(kMaxBatch, updates.size() - begin));
    chunk.assign(part.begin(), part.end());
    const la::ScoreStoreStats before = index->scores().stats();
    const std::uint64_t t0 = NowNs();
    const Status applied = index->ApplyBatchCoalesced(chunk);
    const std::uint64_t t1 = NowNs();
    INCSR_CHECK(applied.ok(), "replay apply failed: %s",
                applied.ToString().c_str());
    const la::ScoreStoreStats& after = index->scores().stats();
    const std::span<const std::int32_t> touched = index->TouchedScoreRows();
    rows.assign(touched.begin(), touched.end());
    const std::uint64_t t2 = NowNs();
    index->SnapshotGraph();
    const std::uint64_t t3 = NowNs();
    index->mutable_score_store()->Publish();
    const std::uint64_t t4 = NowNs();
    std::uint64_t t5 = t4;
    std::uint64_t t6 = t4;
    if (topk != nullptr) {
      topk->RebuildRows(index->scores(), rows);
      t5 = NowNs();
      topk->Publish();
      t6 = NowNs();
    }
    ++t.chunks;
    t.updates += chunk.size();
    t.rows_written += rows.size();
    t.apply_ns += t1 - t0;
    t.graph_ns += t3 - t2;
    t.store_publish_ns += t4 - t3;
    t.rerank_ns += t5 - t4;
    t.topk_publish_ns += t6 - t5;
    t.cow_bytes += after.bytes_copied - before.bytes_copied;
    t.sparse_merges += after.sparse_write_merges - before.sparse_write_merges;
  }
  const SchedulerStats sched_after = Scheduler::Global().stats();
  t.regions = sched_after.regions - sched_before.regions;
  t.steals = sched_after.steals - sched_before.steals;
  return t;
}

/// What the traced run keeps from its timed part.
struct TimedExports {
  service::ServiceStats stats;
  double burst_apply_mean_ns = 0.0;
  double gen_late_us_p99 = 0.0;
  UpdateSpan burst;  // primer first
};

void LayerPass(const WorkloadSpec& spec, const Inputs& in,
               const ZipfSampler& zipf, std::uint64_t seed,
               const TimedExports& timed, UpdateSpan rpc_updates,
               std::vector<Metric>* out) {
  const auto add = [out](const char* name, double value, const char* unit) {
    out->push_back({name, value, unit});
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  add("gen.late_us_p99", timed.gen_late_us_p99, "us");

  // Bench-owned index and top-k index in the set-up state the timed burst
  // started from; the replay applies the burst's exact batches.
  std::uint64_t t0 = NowNs();
  core::DynamicSimRank index = BuildIndex(spec.store, spec.nodes, in);
  add("simrank.index_build_s", static_cast<double>(NowNs() - t0) / 1e9, "s");
  const std::size_t capacity =
      ServiceOptionsFor(spec.store).topk_index_capacity;
  service::TopKIndex topk(capacity);
  t0 = NowNs();
  topk.RebuildAll(index.scores());
  add("topk_index.rebuild_all_s", static_cast<double>(NowNs() - t0) / 1e9,
      "s");
  index.mutable_score_store()->Publish();
  index.SnapshotGraph();
  topk.Publish();
  Replay(&index, &topk, timed.burst.first(1));
  const ReplayTotals r = Replay(&index, &topk, timed.burst.subspan(1));
  const double updates = static_cast<double>(r.updates);
  const double chunks = static_cast<double>(r.chunks);
  const double rows = static_cast<double>(r.rows_written);

  add("core.apply_us_per_update", per(r.apply_ns / 1e3, updates), "us");
  add("core.rows_written_per_update", per(rows, updates), "count");
  add("core.ns_per_row_written", per(static_cast<double>(r.apply_ns), rows),
      "ns");
  add("la.publish_us", per(r.store_publish_ns / 1e3, chunks), "us");
  add("la.cow_kb_per_update", per(r.cow_bytes / 1e3, updates), "KB");
  add("la.sparse_merges_per_update",
      per(static_cast<double>(r.sparse_merges), updates), "count");
  {
    Rng rng(seed ^ 0x4EAD'0000'0000'0003ULL);
    la::Vector scratch;
    double diagonal = 0.0;
    t0 = NowNs();
    for (std::size_t s = 0; s < kReadRowSamples; ++s) {
      const std::size_t row = rng.NextBounded(spec.nodes);
      diagonal += index.scores().ReadRow(row, &scratch)[row];
    }
    const double ns = static_cast<double>(NowNs() - t0);
    INCSR_CHECK(diagonal > 0.0, "ReadRow returned a zero diagonal");
    add("la.read_row_us", ns / 1e3 / kReadRowSamples, "us");
  }
  add("la.resident_mb",
      static_cast<double>(index.scores().payload_bytes()) / 1e6, "MB");
  add("graph.snapshot_us", per(r.graph_ns / 1e3, chunks), "us");
  add("topk_index.rerank_us_per_row", per(r.rerank_ns / 1e3, rows), "us");
  add("topk_index.rerank_ms_per_epoch", per(r.rerank_ns / 1e6, chunks), "ms");
  add("topk_index.publish_us", per(r.topk_publish_ns / 1e3, chunks), "us");

  // Service stats of the timed run (always-on exports).
  service::ServiceStats stats = timed.stats;
  add("service.queue_wait_ms_p50", stats.queue_wait_ns.Percentile(0.5) / 1e6,
      "ms");
  add("service.queue_wait_ms_p99", stats.queue_wait_ns.Percentile(0.99) / 1e6,
      "ms");
  add("service.apply_ms_p50", stats.apply_ns.Percentile(0.5) / 1e6, "ms");
  add("service.apply_ms_p99", stats.apply_ns.Percentile(0.99) / 1e6, "ms");
  add("service.updates_per_batch",
      per(static_cast<double>(stats.applied),
          static_cast<double>(stats.batches)),
      "count");
  add("service.replay_coverage",
      per(r.LayerNsPerChunk(), timed.burst_apply_mean_ns), "ratio");

  // The replayed index moves into a service, which then serves the reads.
  auto created = service::SimRankService::Create(
      std::move(index), ServiceOptionsFor(spec.store));
  INCSR_CHECK(created.ok(), "service Create failed");
  std::unique_ptr<service::SimRankService> svc = std::move(created).value();
  SpreadThreads();
  Rng rng(seed ^ 0x1A7E'0000'0000'0004ULL);
  std::vector<double> local_ns;
  local_ns.reserve(kLayerReads);
  for (std::size_t q = 0; q < kLayerReads; ++q) {
    const graph::NodeId node = zipf.Next(&rng);
    t0 = NowNs();
    const bool ok = Query(svc.get(), nullptr, node);
    local_ns.push_back(static_cast<double>(NowNs() - t0));
    INCSR_CHECK(ok, "layer-pass TopKFor failed");
  }
  {
    const std::shared_ptr<const service::EpochSnapshot> snap = svc->Snapshot();
    std::vector<graph::NodeId> nodes;
    for (std::size_t q = 0; q < kLayerReads; ++q) {
      nodes.push_back(zipf.Next(&rng));
    }
    std::vector<core::ScoredPair> items;
    std::size_t served = 0;
    t0 = NowNs();
    for (graph::NodeId node : nodes) {
      served += snap->topk.Serve(node, kTopK, &items);
    }
    const double ns = static_cast<double>(NowNs() - t0);
    INCSR_CHECK(served == nodes.size(), "index failed to serve k = %zu", kTopK);
    add("topk_index.serve_ns", ns / static_cast<double>(nodes.size()), "ns");
  }
  const double local_p50 = Quantile(&local_ns, 0.5);
  add("service.topk_for_ns_p50", local_p50, "ns");
  add("service.topk_for_ns_p99", Quantile(&local_ns, 0.99), "ns");

  std::vector<double> rpc_ns;
  std::vector<double> submit_ns;
  {
    auto server = net::IncSrServer::Serve(svc.get());
    INCSR_CHECK(server.ok(), "layer-pass server failed");
    auto client =
        net::IncSrClient::Connect((*server)->host(), (*server)->port());
    INCSR_CHECK(client.ok(), "layer-pass connect failed");
    SpreadThreads();
    for (std::size_t q = 0; q < kLayerRpcReads; ++q) {
      const graph::NodeId node = zipf.Next(&rng);
      t0 = NowNs();
      const bool ok = Query(nullptr, &*client, node);
      rpc_ns.push_back(static_cast<double>(NowNs() - t0));
      INCSR_CHECK(ok, "layer-pass RPC TopKFor failed");
    }
    for (const graph::EdgeUpdate& u : rpc_updates) {
      t0 = NowNs();
      const bool ok = SubmitOne(nullptr, &*client, u);
      submit_ns.push_back(static_cast<double>(NowNs() - t0));
      INCSR_CHECK(ok, "layer-pass RPC Submit failed");
    }
    INCSR_CHECK(client->Flush().ok(), "layer-pass flush failed");
  }
  for (std::size_t q = 0; q < kLayerReads; ++q) {
    INCSR_CHECK(Query(svc.get(), nullptr, zipf.Next(&rng)),
                "layer-pass TopKFor failed");
  }
  stats = svc->stats();
  add("query_cache.hit_rate",
      per(static_cast<double>(stats.cache.hits),
          static_cast<double>(stats.cache.hits + stats.cache.misses)),
      "ratio");
  add("query_cache.invalidations_per_epoch",
      per(static_cast<double>(stats.cache.invalidations),
          static_cast<double>(stats.batches)),
      "count");
  const double rpc_p50 = Quantile(&rpc_ns, 0.5);
  add("net.topk_rpc_us_p50", rpc_p50 / 1e3, "us");
  add("net.topk_rpc_us_p99", Quantile(&rpc_ns, 0.99) / 1e3, "us");
  add("net.overhead_us_p50", (rpc_p50 - local_p50) / 1e3, "us");
  add("net.submit_rpc_us_p50", Quantile(&submit_ns, 0.5) / 1e3, "us");
  add("scheduler.regions_per_update",
      per(static_cast<double>(r.regions), updates), "count");
  add("scheduler.steals_per_region",
      per(static_cast<double>(r.steals), static_cast<double>(r.regions)),
      "count");
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // name, store, n, write_rate, readers, read_rate, wire
  static const std::vector<WorkloadSpec> kSpecs = {
      {"ingest_sparse_32k", StoreKind::kSparse, 32768, 20.0, 0, 0.0, false},
      {"ingest_dense_2k", StoreKind::kDense, 2048, 100.0, 0, 0.0, false},
      {"mixed_wire_16k", StoreKind::kSparse, 16384, 5.0, 2, 10000.0, true},
      {"read_zipf_16k", StoreKind::kSparse, 16384, 0.0, 3, 50000.0, false},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

RunResult RunWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds, bool trace) {
  const std::size_t window_size = OpenLoopCount(spec.write_rate, seconds);
  Inputs in = MakeInputs(spec.store, spec.nodes, seed);
  const ZipfSampler zipf(in.node_of, kZipfTheta);
  const UpdateSpan burst = in.Take(1 + kBurstUpdates);  // primer first
  const UpdateSpan window = in.Take(window_size);
  const UpdateSpan rpc_updates = in.Take(trace ? kLayerRpcSubmits : 0);
  LoadSamples writes;
  writes.Prepare(window_size);
  std::vector<LoadSamples> reads(spec.readers);
  for (LoadSamples& r : reads) {
    r.Prepare(OpenLoopCount(spec.read_rate, seconds));
  }

  // Declared before the service so they outlive the listener that uses
  // them.
  LagBook lag(window);
  ApplierGate gate;
  const service::AppliedBatchListener listener =
      [&lag, &gate](std::uint64_t,
                    const std::vector<graph::EdgeUpdate>& batch) {
        lag.OnApplied(batch);
        gate.OnBatch();
      };

  // Memory baseline: inputs and sample arrays exist, the program does not.
  const double rss_before_mb = ProcStatusMb("VmRSS");
  std::vector<double> setup_s;
  Serving serving;
  Scheduler::Global();  // start the kernel workers so they can be spread
  for (int r = 0; r < (trace ? 1 : kSetupRepeats); ++r) {
    serving.Reset();
    SpreadThreads();
    const std::uint64_t t0 = NowNs();
    serving = SetUp(spec, in);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  service::SimRankService* svc = serving.service.get();

  // ---- Closed write burst, from the set-up state --------------------------
  // Before the window, so every workload's burst meets the same store: after
  // millions of reads the tier policy promotes read-hot rows during the
  // burst, which made its rate swing ±25 % from run to run.
  serving.server.reset();  // a server holds the only listener slot
  svc->SetAppliedBatchListener(listener);
  const WriteBurstOutcome outcome = WriteBurst(svc, &gate, burst);
  // Read before the window: there the tier policy promotes read-hot rows to
  // dense through a bounded clock sweep, and whether the sweep reaches the
  // hot rows within the window depends on the seed's id rotation (73 vs
  // 120 MB on mixed_wire_16k).
  const double peak_mem_mb = ProcStatusMb("VmHWM") - rss_before_mb;

  std::vector<net::IncSrClient> clients;
  if (spec.wire) {
    // The serving server; setup_s timed starting one. It takes the listener
    // slot, so this workload reports query latency, not lag.
    auto server = net::IncSrServer::Serve(svc);
    INCSR_CHECK(server.ok(), "server failed: %s",
                server.status().ToString().c_str());
    serving.server = std::move(server).value();
    for (std::size_t c = 0; c < spec.readers + 1; ++c) {
      auto client = net::IncSrClient::Connect(serving.server->host(),
                                              serving.server->port());
      INCSR_CHECK(client.ok(), "connect failed: %s",
                  client.status().ToString().c_str());
      clients.push_back(std::move(client).value());
    }
  }

  // ---- Open-loop window ---------------------------------------------------
  {
    const std::uint64_t start = NowNs() + 20'000'000;
    std::vector<std::thread> threads;
    if (spec.write_rate > 0.0) {
      threads.emplace_back([&] {
        net::IncSrClient* client = spec.wire ? &clients[spec.readers] : nullptr;
        RunOpenLoop(
            start, spec.write_rate, seconds,
            [&](std::uint64_t i, std::uint64_t due) {
              lag.due_ns[i] = due;
              return SubmitOne(svc, client, window[i]);
            },
            &writes);
      });
    }
    for (std::size_t r = 0; r < spec.readers; ++r) {
      threads.emplace_back([&, r] {
        Rng rng(seed * 7919 + 1 + r);
        net::IncSrClient* client = spec.wire ? &clients[r] : nullptr;
        RunOpenLoop(
            start, spec.read_rate, seconds,
            [&](std::uint64_t, std::uint64_t) {
              return Query(svc, client, zipf.Next(&rng));
            },
            &reads[r]);
      });
    }
    SpreadThreads();  // generators wait for `start`, 20 ms away
    for (std::thread& t : threads) t.join();
  }
  INCSR_CHECK(svc->Flush().ok(), "flush failed");

  std::vector<double> lag_ns;
  std::uint64_t unpublished = 0;
  for (std::size_t i = 0; i < window.size() && !spec.wire; ++i) {
    if (lag.published_ns[i] == 0) {
      ++unpublished;
    } else {
      lag_ns.push_back(static_cast<double>(lag.published_ns[i]) -
                       static_cast<double>(lag.due_ns[i]));
    }
  }

  bool correct = unpublished == 0;
  if (spec.wire) {
    correct = CheckWire(spec, svc, &clients[0], zipf, seed) && correct;
  }
  const std::uint64_t submitted =
      writes.attempted - writes.failed + burst.size() - outcome.failed;
  correct = CheckOutputs(spec, svc, submitted, zipf, seed) && correct;
  serving.server.reset();
  svc->SetAppliedBatchListener(nullptr);

  LoadSamples read_totals;
  for (const LoadSamples& r : reads) read_totals.Merge(r);
  RunResult result;
  result.correct = correct;
  result.attempted = writes.attempted + read_totals.attempted + burst.size();
  result.failed = writes.failed + read_totals.failed + outcome.failed;

  LoadSamples generators = writes;
  generators.Merge(read_totals);
  const double late_us_p99 = Quantile(&generators.late_ns, 0.99) / 1e3;
  std::printf("generator: %llu ops, lateness p99 %.1f us\n",
              static_cast<unsigned long long>(generators.attempted),
              late_us_p99);

  if (!trace) {
    // Ingest workloads report visibility lag; read workloads report query
    // latency. Both are timed from the intended send time.
    std::vector<double>& op_ns =
        spec.readers > 0 ? read_totals.latency_ns : lag_ns;
    std::printf("window: %zu timed operations (%s)\n", op_ns.size(),
                spec.readers > 0 ? "query latency" : "visibility lag");
    result.metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_us", Quantile(&op_ns, 0.5) / 1e3, "us"},
        {"p90_us", Quantile(&op_ns, 0.9) / 1e3, "us"},
        {"ingest_ups", outcome.ops_s, "1/s"},
        {"peak_mem_mb", peak_mem_mb, "MB"},
    };
    return result;
  }

  TimedExports timed;
  timed.stats = svc->stats();
  timed.burst_apply_mean_ns = outcome.apply_mean_ns;
  timed.gen_late_us_p99 = late_us_p99;
  timed.burst = burst;
  serving.Reset();
  LayerPass(spec, in, zipf, seed, timed, rpc_updates, &result.metrics);
  return result;
}

RunResult RunSweep(const std::vector<std::size_t>& sizes, std::uint64_t seed) {
  RunResult result;
  std::optional<std::size_t> rows_reference;
  for (std::size_t n : sizes) {
    Inputs in = MakeInputs(StoreKind::kSparse, n, seed);
    core::DynamicSimRank index = BuildIndex(StoreKind::kSparse, n, in);
    index.mutable_score_store()->Publish();
    const ReplayTotals r = Replay(&index, nullptr, in.Take(kSweepReplay));
    const double updates = static_cast<double>(r.updates);
    const std::string prefix = "sweep.n" + std::to_string(n) + ".";
    result.metrics.push_back({prefix + "core.apply_us_per_update",
                              static_cast<double>(r.apply_ns) / 1e3 / updates,
                              "us"});
    result.metrics.push_back(
        {prefix + "core.ns_per_row_written",
         static_cast<double>(r.apply_ns) / static_cast<double>(r.rows_written),
         "ns"});
    result.metrics.push_back(
        {prefix + "core.rows_written_per_update",
         static_cast<double>(r.rows_written) / updates, "count"});
    result.attempted += r.updates;
    std::printf("sweep: n = %zu, %zu updates, %zu rows written, %.1f us per "
                "update, %.1f ns per row written\n",
                n, r.updates, r.rows_written,
                static_cast<double>(r.apply_ns) / 1e3 / updates,
                static_cast<double>(r.apply_ns) /
                    static_cast<double>(r.rows_written));
    if (rows_reference && *rows_reference != r.rows_written) {
      std::printf("sweep: rows written differ across n (%zu vs %zu): the "
                  "affected area is not fixed\n",
                  *rows_reference, r.rows_written);
      result.correct = false;
    }
    rows_reference = r.rows_written;
  }
  return result;
}

}  // namespace incsr::e2e

// incsr_cli — command-line driver for the library: load a SNAP edge list,
// compute all-pairs SimRank, optionally replay an update stream
// incrementally, and print top-k similar pairs (or neighbors of a query
// node).
//
// Modes: batch (`incsr_cli <edge_list>`), `serve`, `client` and `trace
// summarize`. `incsr_cli --help`, `incsr_cli serve --help` and
// `incsr_cli client --help` print each mode's flags, generated from the
// flag tables below.
//
// `serve` replays the update stream through the concurrent SimRankService
// (N writer threads submitting, M reader threads issuing top-k queries
// against published epoch snapshots), then Flush()es and prints ingest /
// query / cache statistics. With --writers > 1 the stream is split
// round-robin, so order-dependent updates may be skipped (reported as
// "failed"); insert-only streams replay losslessly at any writer count.
//
// --shards S > 0 serves through a ShardedSimRankService instead: the
// graph's weakly connected components are bin-packed into S shards, each
// with its own ingest queue and applier; updates route to the shard
// owning their endpoints (a component-joining insert merges shards),
// queries fan out and merge. Per-shard stats are printed alongside the
// aggregate.
//
// With --listen the service goes online instead of replaying a local
// stream: an IncSrServer speaks the framed binary protocol (see
// docs/wire_protocol.md) on HOST:PORT, ingest arrives as Submit RPCs, and
// SIGINT/SIGTERM shuts down gracefully — stop accepting, drain the ingest
// queue, publish the final epoch, print final stats, exit 0. An optional
// --updates FILE is pre-applied through the service before going online.
// --replica-of turns the process into a read replica: it builds the same
// initial state from the edge list, subscribes to the primary's applied
// update stream, and serves reads that are bitwise identical to the
// primary's at the same epoch.
//
// `client` is a thin RPC client for a --listen server. Node ids on the
// wire are the server's DENSE ids (the edge-list reader's remapped
// space), not the original file ids.
//
// The updates file holds one update per line: "+ src dst" (insert) or
// "- src dst" (delete); '#' starts a comment.
#include <atomic>
#include <chrono>
#include <concepts>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct CliOptions {
  std::string edge_list;
  std::string updates_file;
  graph::NodeId query = -1;
  std::size_t topk = 10;
  double damping = 0.6;
  int iterations = 15;
  core::UpdateAlgorithm algorithm = core::UpdateAlgorithm::kIncSR;
};

Result<std::vector<graph::EdgeUpdate>> ReadUpdates(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open updates file '" + path + "'");
  std::ostringstream contents;
  contents << file.rdbuf();
  return graph::ParseUpdateStream(contents.str());
}

// The edge-list reader remaps arbitrary node ids to dense [0, n); update
// streams speak the ORIGINAL id space, so they must go through the same
// map or they would silently target the wrong nodes.
Status TranslateUpdates(const graph::EdgeListData& data,
                        std::vector<graph::EdgeUpdate>* updates) {
  if (data.id_map.empty()) return Status::OK();  // ids were already dense
  for (graph::EdgeUpdate& update : *updates) {
    auto src = data.id_map.find(update.src);
    auto dst = data.id_map.find(update.dst);
    if (src == data.id_map.end() || dst == data.id_map.end()) {
      return Status::InvalidArgument(
          "update " + graph::ToString(update) +
          " references a node id absent from the edge list");
    }
    update.src = src->second;
    update.dst = dst->second;
  }
  return Status::OK();
}

// Presents node ids to the user in the id space of their input files:
// dense internal ids are mapped back to the original ids when the reader
// remapped, and user-supplied ids (--query) are mapped forward.
class IdSpace {
 public:
  explicit IdSpace(const graph::EdgeListData& data) {
    for (const auto& [original, dense] : data.id_map) {
      if (static_cast<std::size_t>(dense) >= reverse_.size()) {
        reverse_.resize(static_cast<std::size_t>(dense) + 1, -1);
      }
      reverse_[static_cast<std::size_t>(dense)] = original;
      forward_.emplace(original, dense);
    }
  }

  /// Original id of a dense node (identity when no remap occurred).
  long long ToOriginal(graph::NodeId dense) const {
    if (reverse_.empty()) return dense;
    const auto i = static_cast<std::size_t>(dense);
    return i < reverse_.size() ? reverse_[i] : -1;
  }

  /// Dense id for a user-supplied original id; -1 when unknown.
  graph::NodeId ToDense(long long original) const {
    if (forward_.empty()) {
      return original >= 0 ? static_cast<graph::NodeId>(original) : -1;
    }
    auto it = forward_.find(original);
    return it == forward_.end() ? -1 : it->second;
  }

 private:
  std::vector<long long> reverse_;
  std::unordered_map<long long, graph::NodeId> forward_;
};

struct ServeOptions {
  std::string edge_list;
  std::string updates_file;
  std::size_t writers = 1;
  std::size_t readers = 2;
  std::size_t topk = 10;
  double damping = 0.6;
  int iterations = 15;
  // Applier kernel parallelism (0 = INCSR_THREADS / hardware default).
  // Results are bitwise independent of the setting.
  int num_threads = 0;
  // 0 = single SimRankService; S > 0 = ShardedSimRankService with S shards
  // (clamped to the component count). Results are identical either way.
  std::size_t shards = 0;
  service::ServiceOptions service;
  // Network mode: serve the binary RPC protocol on HOST:PORT instead of
  // replaying a local load.
  std::string listen;
  // Read-replica mode: subscribe to this primary's applied update stream.
  std::string replica_of;
  // Applied batches the primary retains for replica catch-up.
  std::size_t replication_backlog = 4096;
  // When non-empty, record a binary serve-path trace to this file
  // (`incsr_cli trace summarize FILE` decodes it). "%p" expands to the pid.
  std::string trace_out;
  // Per-thread trace ring size. Undersized rings drop events (counted in
  // the trace footer) instead of ever blocking the serve path.
  std::size_t trace_buffer_kb = 1024;
};

// The serve flags' cross-flag rules, checked before any work starts.
Status CheckServeOptions(const ServeOptions& options) {
  // The services' own check, run here so a bad value fails before the
  // O(n²) index build rather than after it.
  INCSR_RETURN_IF_ERROR(service::ValidateOptions(options.service));
  if (options.listen.empty()) {
    if (!options.replica_of.empty()) {
      return Status::InvalidArgument("--replica-of requires --listen");
    }
    if (options.updates_file.empty()) {
      return Status::InvalidArgument("serve requires --updates FILE");
    }
    if (options.writers == 0 || options.readers == 0) {
      return Status::InvalidArgument("serve needs >= 1 writer and reader");
    }
  } else {
    INCSR_RETURN_IF_ERROR(net::ParseHostPort(options.listen).status());
    if (!options.replica_of.empty()) {
      INCSR_RETURN_IF_ERROR(net::ParseHostPort(options.replica_of).status());
      if (options.shards > 0) {
        return Status::InvalidArgument(
            "--replica-of does not combine with --shards");
      }
      if (!options.updates_file.empty()) {
        return Status::InvalidArgument(
            "--replica-of does not combine with --updates: a replica's "
            "state advances only through the primary's stream");
      }
    }
  }
  return Status::OK();
}

// ---- Stats output -----------------------------------------------------------

// Prometheus text-format sample lines of one stats leaf; `labels` is
// empty or a label list such as shard="2".
std::string Sample(const std::string& name, const std::string& labels,
                   double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.9g", value);
  return name + (labels.empty() ? "" : "{" + labels + "}") + " " + text +
         "\n";
}
template <std::unsigned_integral T>
std::string Sample(const std::string& name, const std::string& labels,
                   T value) {
  return name + (labels.empty() ? "" : "{" + labels + "}") + " " +
         std::to_string(value) + "\n";
}
std::string Sample(const std::string& name, const std::string& labels,
                   const obs::HistogramSnapshot& hist) {
  std::string out;
  for (double q : {0.5, 0.99}) {
    char quantile[32];
    std::snprintf(quantile, sizeof quantile, "quantile=\"%g\"", q);
    out += Sample(name, labels.empty() ? quantile : labels + "," + quantile,
                  hist.Percentile(q));
  }
  return out + Sample(name + "_sum", labels, hist.sum) +
         Sample(name + "_count", labels, hist.count);
}

const char* PrometheusType(obs::StatAgg agg) {
  switch (agg) {
    case obs::StatAgg::kSum: return "counter";
    case obs::StatAgg::kMax:
    case obs::StatAgg::kGauge: return "gauge";
    case obs::StatAgg::kHistogram: return "summary";
  }
  return "untyped";
}

// Prints every ServiceStats table field in Prometheus text format: HELP
// and TYPE from the table, the aggregate as an unlabeled sample, then one
// {shard="N"} sample per shard. Histograms print as summaries (p50/p99,
// _sum, _count).
void PrintStats(const service::ServiceStats& total,
                const std::vector<shard::ShardedStats::ShardEntry>& shards =
                    {}) {
  // samples[source][leaf]: the aggregate first, then each shard.
  std::vector<std::vector<std::string>> samples;
  const auto render = [&samples](const service::ServiceStats& stats,
                                 const std::string& labels) {
    std::vector<std::string>& out = samples.emplace_back();
    obs::VisitLeaves(stats, [&](const std::string& name,
                                const obs::StatField&, const auto& value) {
      out.push_back(Sample("incsr_" + name, labels, value));
    });
  };
  render(total, "");
  for (const auto& entry : shards) {
    render(entry.stats, "shard=\"" + std::to_string(entry.slot) + "\"");
  }
  std::size_t leaf = 0;
  obs::VisitLeaves(total, [&](const std::string& name,
                              const obs::StatField& field, const auto&) {
    std::printf("# HELP incsr_%s %.*s", name.c_str(),
                static_cast<int>(field.help.size()), field.help.data());
    if (!field.unit.empty()) {
      std::printf(" (%.*s)", static_cast<int>(field.unit.size()),
                  field.unit.data());
    }
    std::printf("\n# TYPE incsr_%s %s\n", name.c_str(),
                PrometheusType(field.agg));
    for (const auto& source : samples) std::fputs(source[leaf].c_str(), stdout);
    ++leaf;
  });
}

// Replays the update stream from N writer threads while M reader threads
// issue top-k queries, then flushes. Works against any service exposing
// Submit / TopKFor / Flush (single or sharded).
struct ReplayOutcome {
  double seconds = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t dropped = 0;
  bool ok = false;
};

template <typename Service>
ReplayOutcome ReplayLoad(Service& svc, const ServeOptions& options,
                         const std::vector<graph::EdgeUpdate>& updates,
                         std::size_t num_nodes) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<std::thread> threads;
  WallTimer timer;
  for (std::size_t w = 0; w < options.writers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < updates.size(); i += options.writers) {
        Status s = svc.Submit(updates[i]);
        if (s.code() == StatusCode::kResourceExhausted) {
          // Reject backpressure: this update is dropped (and counted);
          // keep replaying the rest of the stream.
          dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!s.ok()) {
          std::fprintf(stderr, "submit: %s\n", s.ToString().c_str());
          return;
        }
      }
    });
  }
  for (std::size_t r = 0; r < options.readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(1234 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        auto node = static_cast<graph::NodeId>(rng.NextBounded(num_nodes));
        auto top = svc.TopKFor(node, options.topk);
        if (top.ok()) queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t w = 0; w < options.writers; ++w) threads[w].join();
  Status flushed = svc.Flush();
  ReplayOutcome outcome;
  outcome.seconds = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (std::size_t t = options.writers; t < threads.size(); ++t) {
    threads[t].join();
  }
  if (!flushed.ok()) {
    std::fprintf(stderr, "error: %s\n", flushed.ToString().c_str());
    return outcome;
  }
  outcome.queries = queries.load();
  outcome.dropped = dropped.load();
  outcome.ok = true;
  return outcome;
}

int RunServeSharded(const ServeOptions& options,
                    const graph::EdgeListData& data,
                    const std::vector<graph::EdgeUpdate>& updates) {
  simrank::SimRankOptions sr_options;
  sr_options.damping = options.damping;
  sr_options.iterations = options.iterations;
  sr_options.num_threads = options.num_threads;
  shard::ShardedServiceOptions sharded_options;
  sharded_options.num_shards = options.shards;
  sharded_options.per_shard = options.service;
  WallTimer timer;
  auto service = shard::ShardedSimRankService::Create(data.graph, sr_options,
                                                      sharded_options);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }
  shard::ShardedSimRankService& svc = **service;
  shard::ShardedStats initial = svc.stats();
  std::printf(
      "per-shard batch SimRank solves: %.2f s over %zu shard(s) "
      "(requested %zu, clamped to the component count)\n",
      timer.ElapsedSeconds(), initial.active_shards, options.shards);
  for (const auto& entry : initial.per_shard) {
    std::printf("  shard %zu: %zu nodes\n", entry.slot, entry.nodes);
  }

  ReplayOutcome outcome =
      ReplayLoad(svc, options, updates, data.graph.num_nodes());
  if (!outcome.ok) return 1;

  shard::ShardedStats stats = svc.stats();
  std::printf(
      "replayed in %.3f s: %llu dropped by backpressure, %llu failed at the "
      "router, %llu shard merges over %zu live shard(s)\n",
      outcome.seconds, static_cast<unsigned long long>(outcome.dropped),
      static_cast<unsigned long long>(stats.router_failed),
      static_cast<unsigned long long>(stats.merges), stats.active_shards);
  std::printf("aggregate ingest throughput: %.0f updates/s\n",
              static_cast<double>(stats.total.applied) / outcome.seconds);
  std::printf("concurrent queries served: %llu (%.0f queries/s)\n",
              static_cast<unsigned long long>(outcome.queries),
              static_cast<double>(outcome.queries) / outcome.seconds);
  if (stats.merges > 0) {
    std::printf(
        "shard merges rebuilt %llu score rows (%.2f MB) in %.3f s — the "
        "cost of component-joining inserts\n",
        static_cast<unsigned long long>(stats.merge_rebuild_rows),
        static_cast<double>(stats.merge_rebuild_bytes) / 1e6,
        stats.merge_rebuild_seconds);
  }
  PrintStats(stats.total, stats.per_shard);

  IdSpace ids(data);
  std::printf("final state: %zu nodes, %zu edges; top-%zu pairs:\n",
              svc.num_nodes(), svc.num_edges(), options.topk);
  for (const auto& pair : svc.TopKPairs(options.topk)) {
    std::printf("  (%6lld, %6lld)  %.6f\n", ids.ToOriginal(pair.a),
                ids.ToOriginal(pair.b), pair.score);
  }
  return 0;
}

// ---- Network serving (serve --listen) --------------------------------------

volatile std::sig_atomic_t g_shutdown_signal = 0;

void OnShutdownSignal(int sig) { g_shutdown_signal = sig; }

void AwaitShutdownSignal() {
  std::signal(SIGINT, OnShutdownSignal);
  std::signal(SIGTERM, OnShutdownSignal);
  while (g_shutdown_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("\nsignal %d: shutting down\n",
              static_cast<int>(g_shutdown_signal));
}

void PrintServerStats(const net::IncSrServer& server) {
  const net::ServerStats net_stats = server.stats();
  std::printf(
      "network: %llu connections (%llu still open at shutdown), "
      "%llu requests, %llu protocol errors, %llu replica batches streamed\n",
      static_cast<unsigned long long>(net_stats.connections_accepted),
      static_cast<unsigned long long>(net_stats.active_connections),
      static_cast<unsigned long long>(net_stats.requests_served),
      static_cast<unsigned long long>(net_stats.protocol_errors),
      static_cast<unsigned long long>(net_stats.batches_streamed));
}

// Pre-applies an on-disk update stream through the serving path (so a
// primary's replication log retains the batches for replica catch-up).
template <typename Service>
Status Preload(Service& svc, const std::vector<graph::EdgeUpdate>& updates) {
  if (updates.empty()) return Status::OK();
  INCSR_RETURN_IF_ERROR(svc.SubmitBatch(updates));
  return svc.Flush();
}

int RunServeListen(const ServeOptions& options) {
  // CheckServeOptions has parsed --listen and --replica-of.
  const auto endpoint = net::ParseHostPort(options.listen).value();
  auto data = graph::ReadEdgeListFile(options.edge_list);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::vector<graph::EdgeUpdate> preload;
  if (!options.updates_file.empty()) {
    auto updates = ReadUpdates(options.updates_file);
    if (!updates.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   updates.status().ToString().c_str());
      return 1;
    }
    Status translated = TranslateUpdates(data.value(), &updates.value());
    if (!translated.ok()) {
      std::fprintf(stderr, "error: %s\n", translated.ToString().c_str());
      return 1;
    }
    preload = std::move(updates.value());
  }
  std::printf("loaded %zu nodes, %zu edges\n", data->graph.num_nodes(),
              data->graph.num_edges());

  simrank::SimRankOptions sr_options;
  sr_options.damping = options.damping;
  sr_options.iterations = options.iterations;
  sr_options.num_threads = options.num_threads;

  net::ServerOptions server_options;
  server_options.host = endpoint.first;
  server_options.port = endpoint.second;
  server_options.replication_backlog = options.replication_backlog;

  if (options.shards > 0) {
    shard::ShardedServiceOptions sharded_options;
    sharded_options.num_shards = options.shards;
    sharded_options.per_shard = options.service;
    auto service = shard::ShardedSimRankService::Create(
        data->graph, sr_options, sharded_options);
    if (!service.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   service.status().ToString().c_str());
      return 1;
    }
    if (Status s = Preload(**service, preload); !s.ok()) {
      std::fprintf(stderr, "error preloading updates: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    auto server = net::IncSrServer::Serve(service->get(), server_options);
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
      return 1;
    }
    std::printf("serving (%zu shards) on %s:%u\n",
                (*service)->stats().active_shards,
                (*server)->host().c_str(), (*server)->port());
    AwaitShutdownSignal();
    (*server)->Stop();       // stop accepting / answering
    (*service)->Stop();      // drain every shard, publish final epochs
    PrintServerStats(**server);
    const shard::ShardedStats stats = (*service)->stats();
    PrintStats(stats.total, stats.per_shard);
    return 0;
  }

  WallTimer timer;
  auto index = core::DynamicSimRank::Create(data->graph, sr_options);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("batch SimRank solve: %.2f s\n", timer.ElapsedSeconds());

  const bool replica = !options.replica_of.empty();
  auto service =
      replica ? service::SimRankService::CreateReplica(
                    std::move(index).value(), options.service)
              : service::SimRankService::Create(std::move(index).value(),
                                                options.service);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }
  if (Status s = Preload(**service, preload); !s.ok()) {
    std::fprintf(stderr, "error preloading updates: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  auto server = net::IncSrServer::Serve(service->get(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<net::ReplicationClient> replication;
  if (replica) {
    const auto primary = net::ParseHostPort(options.replica_of).value();
    net::ReplicationClientOptions repl_options;
    repl_options.primary_host = primary.first;
    repl_options.primary_port = primary.second;
    auto started = net::ReplicationClient::Start(service->get(),
                                                 repl_options);
    if (!started.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    replication = std::move(*started);
    std::printf("replica serving on %s:%u, replicating from %s\n",
                (*server)->host().c_str(), (*server)->port(),
                options.replica_of.c_str());
  } else {
    std::printf("serving on %s:%u\n", (*server)->host().c_str(),
                (*server)->port());
  }

  AwaitShutdownSignal();
  // Graceful order: stop answering, stop replicating, then drain the
  // ingest queue and publish the final epoch before reporting.
  (*server)->Stop();
  if (replication != nullptr) {
    if (replication->catch_up_failed()) {
      std::fprintf(stderr,
                   "warning: replication catch-up failed — the primary "
                   "trimmed its backlog past this replica's epoch\n");
    }
    replication->Stop();
  }
  (*service)->Stop();
  PrintServerStats(**server);
  PrintStats((*service)->stats());
  return 0;
}

// ---- Client subcommand -----------------------------------------------------

struct ClientCommand {
  std::string endpoint;
  bool ping = false;
  std::string submit_file;
  bool flush = false;
  graph::NodeId score_a = -1;  // -1: no --score
  graph::NodeId score_b = 0;
  graph::NodeId query = -1;
  bool pairs = false;
  std::size_t topk = 10;
  std::vector<graph::NodeId> suggest;
  bool stats = false;
};

int RunClient(const ClientCommand& command) {
  auto connected = net::IncSrClient::Connect(command.endpoint);
  if (!connected.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  net::IncSrClient client = std::move(*connected);

  if (command.ping) {
    WallTimer timer;
    Status pinged = client.Ping();
    if (!pinged.ok()) {
      std::fprintf(stderr, "error: %s\n", pinged.ToString().c_str());
      return 1;
    }
    std::printf("ping: ok (%.3f ms)\n", timer.ElapsedSeconds() * 1e3);
  }
  if (!command.submit_file.empty()) {
    auto updates = ReadUpdates(command.submit_file);
    if (!updates.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   updates.status().ToString().c_str());
      return 1;
    }
    auto response = client.Submit(updates.value());
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("submit: %s — %u accepted, %u rejected\n",
                net::wire::RpcStatusName(response->status),
                response->accepted, response->rejected);
  }
  if (command.flush) {
    Status flushed = client.Flush();
    if (!flushed.ok()) {
      std::fprintf(stderr, "error: %s\n", flushed.ToString().c_str());
      return 1;
    }
    std::printf("flush: ok\n");
  }
  if (command.score_a >= 0) {
    auto score = client.Score(command.score_a, command.score_b);
    if (!score.ok()) {
      std::fprintf(stderr, "error: %s\n", score.status().ToString().c_str());
      return 1;
    }
    std::printf("s(%d, %d) = %.6f\n", command.score_a, command.score_b,
                *score);
  }
  if (command.query >= 0) {
    auto top = client.TopKFor(command.query,
                              static_cast<std::uint32_t>(command.topk));
    if (!top.ok()) {
      std::fprintf(stderr, "error: %s\n", top.status().ToString().c_str());
      return 1;
    }
    std::printf("top-%zu most similar to node %d:\n", command.topk,
                command.query);
    for (const auto& pair : *top) {
      std::printf("  %6d  %.6f\n", pair.b, pair.score);
    }
  }
  if (command.pairs) {
    auto top = client.TopKPairs(static_cast<std::uint32_t>(command.topk));
    if (!top.ok()) {
      std::fprintf(stderr, "error: %s\n", top.status().ToString().c_str());
      return 1;
    }
    std::printf("top-%zu node pairs:\n", command.topk);
    for (const auto& pair : *top) {
      std::printf("  (%6d, %6d)  %.6f\n", pair.a, pair.b, pair.score);
    }
  }
  if (!command.suggest.empty()) {
    auto response = client.Suggest(
        static_cast<std::uint32_t>(command.topk), command.suggest);
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    for (const auto& suggestion : response->suggestions) {
      if (!suggestion.found) {
        std::printf("node %d: not found\n", suggestion.node);
        continue;
      }
      std::printf("node %d:\n", suggestion.node);
      for (const auto& pair : suggestion.entries) {
        std::printf("  %6d  %.6f\n", pair.b, pair.score);
      }
    }
  }
  if (command.stats) {
    auto response = client.Stats();
    if (!response.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    std::printf("# %s: %llu nodes, %llu edges\n",
                response->is_replica ? "replica" : "primary",
                static_cast<unsigned long long>(response->num_nodes),
                static_cast<unsigned long long>(response->num_edges));
    PrintStats(response->stats);
  }
  return 0;
}

// Owns the serve-path trace for the lifetime of a serve run. Started
// before mode dispatch so the listen, sharded, and local-replay paths are
// all covered; the destructor runs on every exit path and reports where
// the trace landed plus how much (if anything) the rings dropped.
class TraceSession {
 public:
  explicit TraceSession(const ServeOptions& options) {
    if (options.trace_out.empty()) return;
    Status started = obs::Tracer::Instance().Start(options.trace_out,
                                                   options.trace_buffer_kb);
    if (!started.ok()) {
      std::fprintf(stderr, "warning: tracing disabled: %s\n",
                   started.ToString().c_str());
      return;
    }
    active_ = true;
    std::printf("tracing serve path to %s (%zu KB per thread ring)\n",
                obs::Tracer::Instance().active_path().c_str(),
                options.trace_buffer_kb);
  }

  ~TraceSession() {
    if (!active_) return;
    obs::Tracer& tracer = obs::Tracer::Instance();
    const std::string path = tracer.active_path();
    const std::uint64_t recorded = tracer.TotalEventsRecorded();
    const std::uint64_t dropped = tracer.TotalEventsDropped();
    const std::size_t rings = tracer.ring_count();
    tracer.Stop();
    std::printf(
        "trace: %s (%llu events from %zu threads, %llu dropped)\n"
        "trace: decode with `incsr_cli trace summarize %s`\n",
        path.c_str(), static_cast<unsigned long long>(recorded), rings,
        static_cast<unsigned long long>(dropped), path.c_str());
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  bool active_ = false;
};

int RunServe(const ServeOptions& options) {
  TraceSession trace(options);
  if (!options.listen.empty()) return RunServeListen(options);
  auto data = graph::ReadEdgeListFile(options.edge_list);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto updates = ReadUpdates(options.updates_file);
  if (!updates.ok()) {
    std::fprintf(stderr, "error: %s\n", updates.status().ToString().c_str());
    return 1;
  }
  Status translated = TranslateUpdates(data.value(), &updates.value());
  if (!translated.ok()) {
    std::fprintf(stderr, "error: %s\n", translated.ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu nodes, %zu edges; replaying %zu updates\n",
              data->graph.num_nodes(), data->graph.num_edges(),
              updates->size());
  std::printf("update kernels: %zu thread(s)\n",
              Scheduler::EffectiveNumThreads(options.num_threads));

  if (options.shards > 0) {
    return RunServeSharded(options, data.value(), updates.value());
  }

  simrank::SimRankOptions sr_options;
  sr_options.damping = options.damping;
  sr_options.iterations = options.iterations;
  sr_options.num_threads = options.num_threads;
  WallTimer timer;
  auto index = core::DynamicSimRank::Create(data->graph, sr_options);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("batch SimRank solve: %.2f s\n", timer.ElapsedSeconds());

  auto service = service::SimRankService::Create(std::move(index).value(),
                                                 options.service);
  if (!service.ok()) {
    std::fprintf(stderr, "error: %s\n", service.status().ToString().c_str());
    return 1;
  }
  service::SimRankService& svc = **service;

  ReplayOutcome outcome =
      ReplayLoad(svc, options, updates.value(), data->graph.num_nodes());
  if (!outcome.ok) return 1;
  const double replay_seconds = outcome.seconds;

  service::ServiceStats stats = svc.stats();
  std::printf("replayed in %.3f s: %llu dropped by backpressure\n",
              replay_seconds,
              static_cast<unsigned long long>(outcome.dropped));
  std::printf("ingest throughput: %.0f updates/s\n",
              static_cast<double>(stats.applied) / replay_seconds);
  std::printf("concurrent queries served: %llu (%.0f queries/s)\n",
              static_cast<unsigned long long>(outcome.queries),
              static_cast<double>(outcome.queries) / replay_seconds);
  // Publish amplification: rows copy-on-written per applied update. The
  // full-copy design this replaced paid n rows per EPOCH regardless of
  // the affected area.
  std::printf(
      "snapshot publish: %.1f rows/update amplification (full-copy "
      "baseline: %zu rows/epoch)\n",
      stats.applied > 0 ? static_cast<double>(stats.rows_published) /
                              static_cast<double>(stats.applied)
                        : 0.0,
      data->graph.num_nodes());
  PrintStats(stats);

  IdSpace ids(data.value());
  auto snap = svc.Snapshot();
  std::printf("final epoch %llu: %zu nodes, %zu edges; top-%zu pairs:\n",
              static_cast<unsigned long long>(snap->epoch),
              snap->graph.num_nodes(), snap->graph.num_edges(), options.topk);
  for (const auto& pair : svc.TopKPairs(options.topk)) {
    std::printf("  (%6lld, %6lld)  %.6f\n", ids.ToOriginal(pair.a),
                ids.ToOriginal(pair.b), pair.score);
  }
  return 0;
}

int RunTrace(int argc, char** argv) {
  std::string command;
  std::string path;
  FlagTable flags("incsr_cli trace");
  flags.Positional("command", "summarize (the only one)", &command)
      .Positional("trace_file", "trace to decode", &path);
  flags.ParseOrExit(argc, argv, 2, [&command] {
    return command == "summarize"
               ? Status::OK()
               : Status::InvalidArgument("unknown trace command '" + command +
                                         "'");
  });
  auto file = obs::ReadTraceFile(path);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s\n", file.status().ToString().c_str());
    return 1;
  }
  obs::TraceSummary summary = obs::Summarize(file.value());
  std::fputs(obs::RenderSummary(summary).c_str(), stdout);
  return 0;
}

int Run(const CliOptions& options) {
  auto data = graph::ReadEdgeListFile(options.edge_list);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded %zu nodes, %zu edges (%zu duplicate lines skipped)\n",
              data->graph.num_nodes(), data->graph.num_edges(),
              data->duplicates_skipped);

  simrank::SimRankOptions sr_options;
  sr_options.damping = options.damping;
  sr_options.iterations = options.iterations;
  WallTimer timer;
  auto index = core::DynamicSimRank::Create(data->graph, sr_options,
                                            options.algorithm);
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }
  std::printf("batch SimRank solve: %.2f s (C = %.2f, K = %d)\n",
              timer.ElapsedSeconds(), options.damping, options.iterations);

  if (!options.updates_file.empty()) {
    auto updates = ReadUpdates(options.updates_file);
    if (!updates.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   updates.status().ToString().c_str());
      return 1;
    }
    Status translated = TranslateUpdates(data.value(), &updates.value());
    if (!translated.ok()) {
      std::fprintf(stderr, "error: %s\n", translated.ToString().c_str());
      return 1;
    }
    timer.Restart();
    Status applied = index->ApplyBatch(updates.value());
    if (!applied.ok()) {
      std::fprintf(stderr, "error applying updates: %s\n",
                   applied.ToString().c_str());
      return 1;
    }
    std::printf("applied %zu updates incrementally: %.3f s\n",
                updates->size(), timer.ElapsedSeconds());
  }

  IdSpace ids(data.value());
  if (options.query >= 0) {
    graph::NodeId query = ids.ToDense(options.query);
    if (query < 0 || !index->graph().HasNode(query)) {
      std::fprintf(stderr, "error: query node %d not in the edge list\n",
                   options.query);
      return 1;
    }
    std::printf("top-%zu most similar to node %d:\n", options.topk,
                options.query);
    for (const auto& pair : index->TopKFor(query, options.topk)) {
      std::printf("  %6lld  %.6f\n", ids.ToOriginal(pair.b), pair.score);
    }
  } else {
    std::printf("top-%zu node pairs:\n", options.topk);
    for (const auto& pair : index->TopKPairs(options.topk)) {
      std::printf("  (%6lld, %6lld)  %.6f\n", ids.ToOriginal(pair.a),
                  ids.ToOriginal(pair.b), pair.score);
    }
  }
  return 0;
}

// ---- Flag tables -----------------------------------------------------------

int BatchMain(int argc, char** argv) {
  CliOptions options;
  FlagTable flags("incsr_cli",
                  "Batch SimRank, with --updates applied incrementally. Other "
                  "modes, each with --help:\nserve, client, trace.");
  flags.Positional("edge_list", "SNAP edge list", &options.edge_list)
      .String("--updates", "FILE", "update stream", &options.updates_file)
      .Int("--query", "NODE", "print this node's top-k", &options.query)
      .Int("--topk", "K", "pairs or neighbours to print", &options.topk)
      .Double("--damping", "C", "SimRank decay factor", &options.damping)
      .Int("--iterations", "K", "SimRank iterations", &options.iterations)
      .Choice("--algorithm", "update kernel", &options.algorithm,
              {{"incsr", core::UpdateAlgorithm::kIncSR},
               {"incusr", core::UpdateAlgorithm::kIncUSR}});
  flags.ParseOrExit(argc, argv);
  return Run(options);
}

int ServeMain(int argc, char** argv) {
  ServeOptions o;
  service::ServiceOptions& svc = o.service;
  FlagTable flags("incsr_cli serve");
  flags.Positional("edge_list", "SNAP edge list", &o.edge_list)
      .String("--updates", "FILE", "update stream to replay or preload",
              &o.updates_file)
      .Int("--writers", "N", "writer threads", &o.writers)
      .Int("--readers", "M", "reader threads", &o.readers)
      .Int("--topk", "K", "k of each query and of the final pairs", &o.topk)
      .Int("--queue-capacity", "Q", "ingest queue size", &svc.queue_capacity)
      .Int("--max-batch", "B", "updates per applied batch", &svc.max_batch)
      .Int("--cache-capacity", "C", "query cache entries", &svc.cache_capacity)
      .Int("--index-capacity", "C", "top-k index entries per node",
           &svc.topk_index_capacity)
      .Double("--sparse-eps", "E", "sparse tier on, at this epsilon",
              &svc.sparse.epsilon)
      .Then([&svc] { svc.sparse.enabled = true; })
      .Double("--sparse-max-density", "D", "sparse row density cap",
              &svc.sparse.max_density)
      .Choice("--backpressure", "full-queue policy", &svc.backpressure,
              {{"block", service::BackpressurePolicy::kBlock},
               {"reject", service::BackpressurePolicy::kReject}})
      .Double("--damping", "C", "SimRank decay factor", &o.damping)
      .Int("--iterations", "K", "SimRank iterations", &o.iterations)
      .Int("--threads", "T", "kernel threads; 0 = INCSR_THREADS",
           &o.num_threads)
      .Int("--shards", "S", "component shards; 0 = unsharded", &o.shards)
      .String("--listen", "HOST:PORT", "serve RPCs until SIGTERM", &o.listen)
      .String("--replica-of", "HOST:PORT", "primary to replicate",
              &o.replica_of)
      .Int("--replication-backlog", "N", "batches kept for replica catch-up",
           &o.replication_backlog)
      .String("--trace-out", "FILE", "serve-path trace; %p = pid",
              &o.trace_out)
      .Int("--trace-buffer-kb", "N", "per-thread trace ring size",
           &o.trace_buffer_kb, 1);
  flags.ParseOrExit(argc, argv, 2, [&o] { return CheckServeOptions(o); });
  return RunServe(o);
}

int ClientMain(int argc, char** argv) {
  ClientCommand c;
  FlagTable flags("incsr_cli client");
  flags.Positional("HOST:PORT", "server; ids are its dense ids", &c.endpoint)
      .Switch("--ping", "round-trip a Ping", &c.ping)
      .String("--submit", "FILE", "submit an update stream", &c.submit_file)
      .Switch("--flush", "wait until submitted updates are visible", &c.flush)
      .IntPair("--score", "A B", "print s(A, B)", &c.score_a, &c.score_b)
      .Int("--query", "NODE", "print this node's top-k", &c.query)
      .Switch("--pairs", "print the top-k pairs", &c.pairs)
      .Int("--topk", "K", "k of --query, --pairs and --suggest", &c.topk)
      .IntList("--suggest", "N1,N2,...", "each node's top-k", &c.suggest)
      .Switch("--stats", "print the server's stats (the default)", &c.stats);
  flags.ParseOrExit(argc, argv, 2,
                    [&c] { return net::ParseHostPort(c.endpoint).status(); });
  c.stats |= !c.ping && c.submit_file.empty() && !c.flush && c.score_a < 0 &&
             c.query < 0 && !c.pairs && c.suggest.empty();
  return RunClient(c);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  if (mode == "serve") return ServeMain(argc, argv);
  if (mode == "client") return ClientMain(argc, argv);
  if (mode == "trace") return RunTrace(argc, argv);
  return BatchMain(argc, argv);
}

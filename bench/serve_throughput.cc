// serve_throughput — load generator for the concurrent serving layer.
// Builds a synthetic link-evolving workload (ER base graph + a sampled
// update stream), replays it through SimRankService from W writer threads
// while R reader threads issue top-k queries in a closed loop, and reports
// ingest throughput (updates/s), query latency percentiles (p50/p99), and
// the epoch-publish cost (rows/bytes copy-on-written per epoch) under the
// mixed read/write load. Runs twice — query cache enabled and disabled —
// so the affected-area invalidation win is visible directly.
//
// Flags (bench_serve_throughput --help): --zipf THETA draws reader query
// nodes Zipf(θ)-skewed (0 = uniform), modeling hot-node traffic;
// --churn delete-heavy replays a 70/30 delete/insert mix in which every
// edge appears once, so the stream is valid under any writer
// interleaving; --threads sizes the update kernels, whose results are
// bitwise independent of it; --index-capacity 0 turns the top-k index
// off, so its O(k) miss path can be compared with the O(n) row scan.
//
// Tracing: --trace-out FILE replays the workload twice more — tracing off
// then tracing on (obs::Tracer writing FILE) — and reports the applier
// throughput delta as trace_overhead_pct in the JSON, with
// trace_overhead_ok recording whether it fits the 3% budget the
// serve-path instrumentation is designed to (docs/tracing.md); the run
// exits 0 either way. Latency percentiles everywhere come from streaming
// obs::Histogram (log-bucketed, mergeable, bounded memory) rather than
// sorting every sample.
//
// Scope: bench_e2e is the serving benchmark, and ctest holds the hard
// checks (sharding in shard_test, the wire and replicas in
// net_server_test and net_replica_test). This harness keeps only two
// arms that neither answers yet: the cache on/off pair, which measures
// Zipf readers with and without the query cache before the cache can be
// judged, and the --trace-out overhead A/B, a timing comparison whose
// trace file `incsr_cli trace summarize` also decodes.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct LoadConfig {
  std::size_t nodes = 200;
  std::size_t edges = 1200;
  std::size_t updates = 400;
  std::size_t writers = 2;
  std::size_t readers = 2;
  std::size_t topk = 10;
  std::size_t max_batch = 64;
  double zipf_theta = 0.0;   // 0 = uniform query nodes
  bool delete_heavy = false; // 70/30 delete/insert churn stream
  int threads = 0;           // update-kernel parallelism (0 = default)
  std::size_t index_capacity = 4096;  // per-node top-k index (0 = off)
  std::string json_path;     // when set, emit a BENCH json trajectory file
  std::string trace_out;         // when set, run the tracing-overhead A/B
  std::size_t trace_buffer_kb = 1024;  // per-thread trace ring size
};

// The tracing-overhead budget the serve-path instrumentation must fit in
// (docs/tracing.md: tracing on within 3% of tracing off).
constexpr double kTraceOverheadLimitPct = 3.0;

std::uint64_t ElapsedNs(const WallTimer& timer) {
  return static_cast<std::uint64_t>(timer.ElapsedSeconds() * 1e9);
}

struct LoadResult {
  double ingest_seconds = 0.0;
  std::uint64_t total_queries = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  obs::HistogramSnapshot query_lat;     // per-query latency, nanoseconds
  service::ServiceStats stats;
};

// An ER base graph plus its update stream: insertions of non-edges, or
// for delete-heavy churn a 7:3 interleave of deletions of existing edges
// and insertions (disjoint sets, so valid in any writer interleaving).
void BuildWorkload(const LoadConfig& config, graph::DynamicDiGraph* graph,
                   std::vector<graph::EdgeUpdate>* updates) {
  auto stream = graph::ErdosRenyiGnm(config.nodes, config.edges, 7);
  INCSR_CHECK(stream.ok(), "generator failed");
  *graph = graph::MaterializeGraph(config.nodes, stream.value());
  Rng rng(11);
  if (!config.delete_heavy) {
    auto ins = graph::SampleInsertions(*graph, config.updates, &rng);
    INCSR_CHECK(ins.ok(), "sampling failed: %s",
                ins.status().ToString().c_str());
    *updates = std::move(ins).value();
    return;
  }
  const std::size_t deletions =
      std::min(graph->num_edges(), config.updates * 7 / 10);
  auto del = graph::SampleDeletions(*graph, deletions, &rng);
  INCSR_CHECK(del.ok(), "deletion sampling failed: %s",
              del.status().ToString().c_str());
  auto ins = graph::SampleInsertions(*graph, config.updates - deletions, &rng);
  INCSR_CHECK(ins.ok(), "insertion sampling failed: %s",
              ins.status().ToString().c_str());
  updates->clear();
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < del->size() || b < ins->size()) {
    for (int d = 0; d < 7 && a < del->size(); ++d) {
      updates->push_back((*del)[a++]);
    }
    for (int s = 0; s < 3 && b < ins->size(); ++s) {
      updates->push_back((*ins)[b++]);
    }
  }
}

// Drives the writer/reader load against one service.
void DriveLoad(const LoadConfig& config,
               const std::vector<graph::EdgeUpdate>& updates,
               service::SimRankService* svc, LoadResult* result) {
  std::atomic<bool> done{false};
  // One streaming histogram per reader (lock-free Record), merged exactly
  // at the end — bounded memory however long the closed loop runs, unlike
  // the sort-every-sample percentile pass this replaced.
  std::vector<obs::Histogram> latencies(config.readers);
  std::vector<std::thread> threads;
  bench::ZipfSampler zipf(config.nodes, config.zipf_theta);
  WallTimer timer;
  for (std::size_t w = 0; w < config.writers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < updates.size(); i += config.writers) {
        Status s = svc->Submit(updates[i]);
        INCSR_CHECK(s.ok(), "submit failed: %s", s.ToString().c_str());
      }
    });
  }
  for (std::size_t r = 0; r < config.readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(999 + static_cast<std::uint64_t>(r));
      obs::Histogram& mine = latencies[r];
      while (!done.load(std::memory_order_acquire)) {
        const auto node = static_cast<graph::NodeId>(zipf.Next(&rng));
        WallTimer query_timer;
        auto top = svc->TopKFor(node, config.topk);
        INCSR_CHECK(top.ok(), "query failed");
        mine.Record(ElapsedNs(query_timer));
      }
    });
  }
  for (std::size_t w = 0; w < config.writers; ++w) threads[w].join();
  INCSR_CHECK(svc->Flush().ok(), "flush failed");
  result->ingest_seconds = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (std::size_t t = config.writers; t < threads.size(); ++t) {
    threads[t].join();
  }
  obs::HistogramSnapshot merged;
  for (const obs::Histogram& per_reader : latencies) {
    merged += per_reader.snapshot();
  }
  result->query_lat = merged;
  result->total_queries = merged.count;
  result->p50_us = merged.Percentile(0.50) / 1e3;
  result->p99_us = merged.Percentile(0.99) / 1e3;
}

LoadResult RunLoad(const LoadConfig& config,
                   const graph::DynamicDiGraph& graph,
                   const std::vector<graph::EdgeUpdate>& updates,
                   std::size_t cache_capacity) {
  simrank::SimRankOptions options;  // paper defaults: C = 0.6, K = 15
  options.num_threads = config.threads;
  service::ServiceOptions service_options;
  service_options.max_batch = config.max_batch;
  service_options.cache_capacity = cache_capacity;
  service_options.topk_index_capacity = config.index_capacity;

  auto index = core::DynamicSimRank::Create(graph, options);
  INCSR_CHECK(index.ok(), "index build failed");
  auto service = service::SimRankService::Create(std::move(index).value(),
                                                 service_options);
  INCSR_CHECK(service.ok(), "service build failed");
  LoadResult result;
  DriveLoad(config, updates, service->get(), &result);
  result.stats = (*service)->stats();
  return result;
}

void Report(const char* label, const LoadConfig& config,
            std::size_t total_updates, const LoadResult& result) {
  const double updates_per_sec =
      static_cast<double>(result.stats.applied) / result.ingest_seconds;
  const double queries_per_sec =
      static_cast<double>(result.total_queries) / result.ingest_seconds;
  const std::uint64_t lookups = result.stats.cache.hits +
                                result.stats.cache.misses;
  const std::uint64_t publishes = result.stats.epoch;
  std::printf(
      "%-14s %9.0f upd/s  %8.0f qry/s  p50 %7.1f us  p99 %7.1f us  "
      "hit-rate %5.1f%%  (%llu queries, %llu epochs)\n",
      label, updates_per_sec, queries_per_sec, result.p50_us, result.p99_us,
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(result.stats.cache.hits) /
                         static_cast<double>(lookups),
      static_cast<unsigned long long>(result.total_queries),
      static_cast<unsigned long long>(publishes));
  // Zero-update runs publish no epoch: the ratio must stay finite (0),
  // not divide by zero.
  const double rows_per_epoch =
      publishes > 0 ? static_cast<double>(result.stats.rows_published) /
                          static_cast<double>(publishes)
                    : 0.0;
  std::printf(
      "%-14s publish cost: %llu rows, %.2f MB copy-on-written "
      "(%.1f rows/epoch; full-copy would be %zu rows/epoch)\n",
      "", static_cast<unsigned long long>(result.stats.rows_published),
      static_cast<double>(result.stats.bytes_published) / 1e6, rows_per_epoch,
      config.nodes);
  const std::uint64_t index_misses =
      result.stats.topk_index_served + result.stats.topk_index_fallbacks;
  std::printf(
      "%-14s top-k index: %llu misses served O(k), %llu row-scan fallbacks "
      "(%.1f%% of misses), %llu rows re-ranked\n",
      "", static_cast<unsigned long long>(result.stats.topk_index_served),
      static_cast<unsigned long long>(result.stats.topk_index_fallbacks),
      index_misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.stats.topk_index_fallbacks) /
                static_cast<double>(index_misses),
      static_cast<unsigned long long>(result.stats.topk_index_rows_reranked));
  INCSR_CHECK(result.stats.applied == total_updates,
              "lost updates: applied %llu of %zu",
              static_cast<unsigned long long>(result.stats.applied),
              total_updates);
}

void RecordRun(bench::JsonObject* root, const char* label,
               const LoadConfig& config, const LoadResult& result) {
  const std::uint64_t lookups =
      result.stats.cache.hits + result.stats.cache.misses;
  const std::uint64_t publishes = result.stats.epoch;
  bench::JsonObject* run = root->AddObject("runs");
  run->Set("label", label)
      .Set("updates_per_sec", static_cast<double>(result.stats.applied) /
                                  result.ingest_seconds)
      .Set("queries_per_sec",
           static_cast<double>(result.total_queries) / result.ingest_seconds)
      .Set("p50_us", result.p50_us)
      .Set("p99_us", result.p99_us)
      .Set("cache_hit_rate",
           lookups == 0 ? 0.0
                        : static_cast<double>(result.stats.cache.hits) /
                              static_cast<double>(lookups))
      .Set("epochs", publishes)
      .Set("rows_published", result.stats.rows_published)
      .Set("bytes_published", result.stats.bytes_published)
      // Guarded: a zero-update run publishes no epoch and must emit a
      // finite ratio, not NaN/inf, or it poisons the trajectory files.
      .Set("rows_per_epoch",
           publishes > 0 ? static_cast<double>(result.stats.rows_published) /
                               static_cast<double>(publishes)
                         : 0.0)
      .Set("rows_per_epoch_full_copy_equivalent", config.nodes)
      .Set("topk_index_served", result.stats.topk_index_served)
      .Set("topk_index_fallbacks", result.stats.topk_index_fallbacks)
      .Set("topk_index_rows_reranked", result.stats.topk_index_rows_reranked);
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  LoadConfig config;
  FlagTable flags("bench_serve_throughput");
  flags.Int("--nodes", "N", "base graph nodes", &config.nodes)
      .Int("--edges", "M", "base graph edges", &config.edges)
      .Int("--updates", "U", "updates replayed", &config.updates)
      .Int("--writers", "W", "writer threads", &config.writers)
      .Int("--readers", "R", "reader threads", &config.readers)
      .Int("--topk", "K", "k of each query", &config.topk)
      .Int("--max-batch", "B", "updates per applied batch", &config.max_batch)
      .Double("--zipf", "THETA", "query Zipf skew", &config.zipf_theta, 0.0)
      .Choice("--churn", "update stream", &config.delete_heavy,
              {{"insert", false}, {"delete-heavy", true}})
      .Int("--threads", "T", "kernel threads; 0 = INCSR_THREADS",
           &config.threads)
      .Int("--index-capacity", "C", "top-k index size", &config.index_capacity)
      .String("--json", "PATH", "JSON trajectory file", &config.json_path)
      .String("--trace-out", "FILE", "tracing A/B output", &config.trace_out)
      .Int("--trace-buffer-kb", "N", "trace ring size per thread",
           &config.trace_buffer_kb, 1);
  flags.ParseOrExit(argc, argv);

  bench::PrintHeader("serve_throughput — mixed read/write serving load");
  std::printf(
      "n = %zu, |E| = %zu, |dG| = %zu (%s), "
      "%zu writers, %zu readers, k = %zu, max_batch = %zu, zipf = %.2f, "
      "kernel threads = %zu, index capacity = %zu\n",
      config.nodes, config.edges, config.updates,
      config.delete_heavy ? "70/30 delete/insert churn" : "insertions",
      config.writers, config.readers, config.topk, config.max_batch,
      config.zipf_theta, Scheduler::EffectiveNumThreads(config.threads),
      config.index_capacity);

  graph::DynamicDiGraph graph;
  std::vector<graph::EdgeUpdate> updates;
  BuildWorkload(config, &graph, &updates);

  LoadResult cached = RunLoad(config, graph, updates,
                              /*cache_capacity=*/4096);
  Report("cache on:", config, updates.size(), cached);
  LoadResult uncached = RunLoad(config, graph, updates,
                                /*cache_capacity=*/0);
  Report("cache off:", config, updates.size(), uncached);

  // Tracing-overhead A/B: interleaved PAIRS of untraced/traced ingest
  // replays, overhead = median of the per-pair throughput ratios.
  // Pairing + median is what makes the number usable on a noisy (or
  // single-core) box: machine-load drift hits both halves of a pair
  // equally, and the median discards the pairs a descheduling ruined.
  // The arms run WITHOUT readers: every trace event rides the applier,
  // readers emit none — they only add closed-loop scheduler noise orders
  // of magnitude larger than the ~20 ns ring write being measured. Each
  // traced half is its own Tracer session on config.trace_out, so the
  // file ends up with the LAST pair's trace — a real multi-epoch artifact
  // for `incsr_cli trace summarize`.
  double trace_overhead_pct = 0.0;
  bool trace_overhead_ok = true;
  LoadResult trace_off;
  LoadResult trace_on;
  if (!config.trace_out.empty()) {
    constexpr int kPairs = 7;
    LoadConfig ab = config;
    ab.readers = 0;
    std::vector<double> ratios;
    double off_best = 0.0;
    double on_best = 0.0;
    std::uint64_t trace_events = 0;
    std::uint64_t trace_dropped = 0;
    for (int pair = 0; pair < kPairs; ++pair) {
      LoadResult off = RunLoad(ab, graph, updates, /*cache_capacity=*/4096);
      const double off_ups =
          static_cast<double>(off.stats.applied) / off.ingest_seconds;
      obs::Tracer& tracer = obs::Tracer::Instance();
      Status started =
          tracer.Start(config.trace_out, config.trace_buffer_kb);
      INCSR_CHECK(started.ok(), "trace start failed: %s",
                  started.ToString().c_str());
      LoadResult on = RunLoad(ab, graph, updates, /*cache_capacity=*/4096);
      trace_events = tracer.TotalEventsRecorded();
      trace_dropped = tracer.TotalEventsDropped();
      tracer.Stop();
      const double on_ups =
          static_cast<double>(on.stats.applied) / on.ingest_seconds;
      // Ratio of applier WORK time (sum of per-batch apply walls from the
      // always-on apply histogram), not end-to-end wall: both runs apply
      // the identical update stream, and work time excludes the queue
      // idle + writer-scheduling gaps that dominate wall-clock jitter.
      const double off_work = static_cast<double>(off.stats.apply_ns.sum);
      const double on_work = static_cast<double>(on.stats.apply_ns.sum);
      if (off_work > 0.0) ratios.push_back(on_work / off_work);
      if (off_ups > off_best) {
        off_best = off_ups;
        trace_off = off;
      }
      if (on_ups > on_best) {
        on_best = on_ups;
        trace_on = on;
      }
    }
    Report("trace off:", config, updates.size(), trace_off);
    Report("trace on:", config, updates.size(), trace_on);
    INCSR_CHECK(!ratios.empty(), "no tracing A/B pairs completed");
    std::sort(ratios.begin(), ratios.end());
    trace_overhead_pct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
    trace_overhead_ok = trace_overhead_pct <= kTraceOverheadLimitPct;
    std::printf(
        "tracing overhead: %.2f%% on applier throughput (median of %d "
        "interleaved pairs; best %.0f vs %.0f upd/s; budget %.1f%%: %s); "
        "%llu events/run (%llu dropped) -> %s\n",
        trace_overhead_pct, kPairs, off_best, on_best, kTraceOverheadLimitPct,
        trace_overhead_ok ? "ok" : "EXCEEDED",
        static_cast<unsigned long long>(trace_events),
        static_cast<unsigned long long>(trace_dropped),
        config.trace_out.c_str());
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "serve_throughput")
        .Set("nodes", config.nodes)
        .Set("edges", config.edges)
        .Set("updates", config.updates)
        .Set("writers", config.writers)
        .Set("readers", config.readers)
        .Set("topk", config.topk)
        .Set("max_batch", config.max_batch)
        .Set("zipf_theta", config.zipf_theta)
        .Set("churn", config.delete_heavy ? "delete-heavy" : "insert")
        .Set("threads", Scheduler::EffectiveNumThreads(config.threads))
        .Set("topk_index_capacity", config.index_capacity);
    RecordRun(&root, "cache_on", config, cached);
    RecordRun(&root, "cache_off", config, uncached);
    if (!config.trace_out.empty()) {
      root.Set("trace_file", config.trace_out)
          .Set("trace_overhead_pct", trace_overhead_pct)
          .Set("trace_overhead_limit_pct", kTraceOverheadLimitPct)
          .Set("trace_overhead_ok", trace_overhead_ok);
      RecordRun(&root, "trace_off", config, trace_off);
      RecordRun(&root, "trace_on", config, trace_on);
    }
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

// scheduler_contention — the multi-applier ingest bench behind the
// work-stealing scheduler: K concurrent appliers (one thread each, bound
// to distinct affinity groups like the sharded service's shard slots)
// replay independent IncSR insertion streams through the SHARED global
// scheduler, at each thread count in --threads-list, in both admission
// modes:
//
//   exclusive      — the legacy ThreadPool policy (one region at a time,
//                    busy => inline-serial), re-enabled via
//                    Scheduler::set_exclusive_regions(true). Its
//                    regions_inline_busy delta is the cliff: every count
//                    is a region that lost its parallelism to a
//                    neighboring applier.
//   work_stealing  — the default: concurrent regions interleave across
//                    the worker set; inline-busy MUST stay zero.
//
// Reported per (mode, threads): aggregate applied-updates/s across the
// appliers, the per-run regions_inline_busy / regions_parallel / steals
// deltas, and the stealing-vs-exclusive speedup at the same thread
// count. Determinism is checked, not assumed: every applier's final S
// must be bitwise identical to its own serial (1-thread, uncontended)
// replay, in every mode, at every thread count.
//
// Note the gap is a function of the host's core count: with W hardware
// threads the exclusive mode serializes roughly (K-1)/K of the regions
// while stealing keeps all W busy, so single-core CI hosts will show
// parity (both modes degenerate to time-slicing) where real multi-core
// serving hosts show the scaling this bench exists to prove.
//
// Flags: bench_scheduler_contention --help.
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct Config {
  std::size_t nodes = 400;        // per applier
  double degree = 8.0;
  std::size_t updates = 96;       // per applier
  int iterations = 10;
  std::size_t appliers = 4;
  std::vector<int> threads_list = {1, 2, 4};
  std::size_t publish_every = 32;  // epoch cadence, like the applier
  std::string json_path;
};

// One applier's private world: a clustered base graph, its batch-solved
// S0, and a fixed insertion stream. Seeds differ per applier so the
// affected areas (and hence region sizes) are not in lockstep.
struct Applier {
  graph::DynamicDiGraph base;
  la::DenseMatrix s0;
  std::vector<graph::EdgeUpdate> stream;
};

Applier MakeApplier(const Config& config, std::uint64_t seed) {
  Applier applier;
  auto stream = graph::EvolvingLinkage(
      {.num_nodes = config.nodes,
       .num_edges = static_cast<std::size_t>(config.degree *
                                             static_cast<double>(config.nodes)),
       .num_communities = std::max<std::size_t>(1, config.nodes / 65),
       .intra_community_prob = 1.0,
       .seed = seed});
  INCSR_CHECK(stream.ok(), "generator failed");
  applier.base = graph::MaterializeGraph(config.nodes, stream.value());
  simrank::SimRankOptions batch_options;
  batch_options.iterations = config.iterations;
  applier.s0 = simrank::BatchMatrix(applier.base, batch_options);
  Rng rng(seed * 7 + 3);
  auto sampled = graph::SampleInsertions(applier.base, config.updates, &rng);
  INCSR_CHECK(sampled.ok(), "sampling failed: %s",
              sampled.status().ToString().c_str());
  applier.stream = std::move(sampled).value();
  return applier;
}

// Replays one applier's stream (the serving applier's write path: unit
// updates on a COW store with periodic publishes) and returns final S.
la::DenseMatrix ReplayStream(const Config& config, const Applier& applier,
                             int threads) {
  simrank::SimRankOptions options;
  options.iterations = config.iterations;
  options.num_threads = threads;
  graph::DynamicDiGraph g = applier.base;
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore store{la::DenseMatrix(applier.s0)};
  core::IncSrEngine engine(options);
  for (std::size_t k = 0; k < applier.stream.size(); ++k) {
    Status s = engine.ApplyUpdate(applier.stream[k], &g, &q, &store);
    INCSR_CHECK(s.ok(), "update failed: %s", s.ToString().c_str());
    if ((k + 1) % config.publish_every == 0) store.Publish();
  }
  return store.ToDense();
}

struct RunResult {
  bool exclusive = false;
  int threads = 0;
  double seconds = 0.0;
  double aggregate_updates_per_sec = 0.0;
  std::uint64_t regions_inline_busy = 0;
  std::uint64_t regions_parallel = 0;
  std::uint64_t steals = 0;
  std::uint64_t tickets_pushed = 0;
};

RunResult RunContended(const Config& config,
                       const std::vector<Applier>& appliers,
                       const std::vector<la::DenseMatrix>& reference,
                       int threads, bool exclusive) {
  Scheduler& scheduler = Scheduler::Global();
  scheduler.set_exclusive_regions(exclusive);
  const SchedulerStats before = scheduler.stats();

  std::vector<la::DenseMatrix> finals(appliers.size());
  std::vector<std::thread> workers;
  WallTimer timer;
  for (std::size_t i = 0; i < appliers.size(); ++i) {
    workers.emplace_back([&config, &appliers, &finals, i, threads] {
      Scheduler::BindCurrentThreadToGroup(static_cast<int>(i));
      finals[i] = ReplayStream(config, appliers[i], threads);
    });
  }
  for (std::thread& worker : workers) worker.join();

  RunResult result;
  result.exclusive = exclusive;
  result.threads = threads;
  result.seconds = timer.ElapsedSeconds();
  scheduler.set_exclusive_regions(false);

  const double total_updates =
      static_cast<double>(config.updates * appliers.size());
  result.aggregate_updates_per_sec =
      result.seconds > 0.0 ? total_updates / result.seconds : 0.0;
  const SchedulerStats after = scheduler.stats();
  result.regions_inline_busy =
      after.regions_inline_busy - before.regions_inline_busy;
  result.regions_parallel = after.regions_parallel - before.regions_parallel;
  result.steals = after.steals - before.steals;
  result.tickets_pushed = after.tickets_pushed - before.tickets_pushed;

  for (std::size_t i = 0; i < appliers.size(); ++i) {
    INCSR_CHECK(la::BitwiseEqual(finals[i], reference[i]),
                "applier %zu S diverged (mode=%s threads=%d) — contention "
                "broke the determinism contract",
                i, exclusive ? "exclusive" : "work_stealing", threads);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  FlagTable flags("bench_scheduler_contention");
  flags.Int("--nodes", "N", "nodes per applier", &config.nodes)
      .Double("--degree", "D", "mean out-degree", &config.degree, 0.0)
      .Int("--updates", "U", "insertions per applier", &config.updates)
      .Int("--iterations", "K", "SimRank iterations", &config.iterations)
      .Int("--appliers", "A", "concurrent appliers", &config.appliers, 1)
      .IntList("--threads-list", "T1,T2,...", "scheduler sizes to run",
               &config.threads_list, 1)
      .Int("--publish-every", "P", "updates/epoch", &config.publish_every, 1)
      .String("--json", "PATH", "JSON trajectory file", &config.json_path);
  flags.ParseOrExit(argc, argv);

  bench::PrintHeader(
      "scheduler_contention — concurrent appliers on the shared scheduler");
  std::printf(
      "%zu appliers × (n = %zu, degree = %.1f, |dG| = %zu insertions), "
      "K = %d, publish every %zu, scheduler = %zu threads, host = %u "
      "hardware threads\n",
      config.appliers, config.nodes, config.degree, config.updates,
      config.iterations, config.publish_every,
      Scheduler::Global().num_threads(),
      std::thread::hardware_concurrency());

  std::vector<Applier> appliers;
  std::vector<la::DenseMatrix> reference;
  WallTimer build_timer;
  for (std::size_t i = 0; i < config.appliers; ++i) {
    appliers.push_back(MakeApplier(config, 11 + 6 * i));
    // Uncontended serial replay: the bitwise reference every contended
    // run must reproduce.
    reference.push_back(ReplayStream(config, appliers.back(), 1));
  }
  std::printf("built %zu appliers (batch solves + serial references): %.2f s\n",
              config.appliers, build_timer.ElapsedSeconds());

  std::vector<RunResult> results;
  std::printf("  %14s %8s %10s %14s %12s %10s %8s\n", "mode", "threads",
              "seconds", "agg upd/s", "inline-busy", "parallel", "steals");
  for (int threads : config.threads_list) {
    for (const bool exclusive : {true, false}) {
      results.push_back(
          RunContended(config, appliers, reference, threads, exclusive));
      const RunResult& run = results.back();
      std::printf("  %14s %8d %8.3f s %14.0f %12llu %10llu %8llu\n",
                  run.exclusive ? "exclusive" : "work-stealing", run.threads,
                  run.seconds, run.aggregate_updates_per_sec,
                  static_cast<unsigned long long>(run.regions_inline_busy),
                  static_cast<unsigned long long>(run.regions_parallel),
                  static_cast<unsigned long long>(run.steals));
      INCSR_CHECK(run.exclusive || run.regions_inline_busy == 0,
                  "work-stealing mode hit the inline-busy path %llu times",
                  static_cast<unsigned long long>(run.regions_inline_busy));
    }
    const RunResult& excl = results[results.size() - 2];
    const RunResult& steal = results.back();
    if (excl.seconds > 0.0 && steal.seconds > 0.0) {
      std::printf("  %14s %8d   stealing/exclusive throughput = %.2fx\n", "",
                  threads,
                  steal.aggregate_updates_per_sec /
                      excl.aggregate_updates_per_sec);
    }
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "scheduler_contention")
        .Set("appliers", config.appliers)
        .Set("nodes", config.nodes)
        .Set("degree", config.degree)
        .Set("updates_per_applier", config.updates)
        .Set("iterations", config.iterations)
        .Set("publish_every", config.publish_every)
        .Set("scheduler_threads", Scheduler::Global().num_threads())
        .Set("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
    for (const RunResult& run : results) {
      root.AddObject("results")
          ->Set("mode", run.exclusive ? "exclusive" : "work_stealing")
          .Set("threads", run.threads)
          .Set("seconds", run.seconds)
          .Set("aggregate_updates_per_sec", run.aggregate_updates_per_sec)
          .Set("regions_inline_busy", run.regions_inline_busy)
          .Set("regions_parallel", run.regions_parallel)
          .Set("steals", run.steals)
          .Set("tickets_pushed", run.tickets_pushed)
          .Set("bitwise_identical_to_serial", true);
    }
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

// sparse_store — the tiered-storage deliverable bench (docs/score_store.md).
//
// Phase A (equivalence sweep): the same power-law workload — a
// preferential-citation base graph plus its remaining stream as live
// inserts — is replayed through SimRankService twice: dense store vs
// tiered store at ε (default 1e-4). Reported per run:
// resident score bytes (dense slab vs sparse payload), ingest updates/s,
// query throughput on the settled tier mix, and for the sparse run the
// accuracy ledger: max |served − exact| against the dense run's final
// snapshot, NDCG@50 of the served top pairs graded by the exact scores,
// and the store's own recorded error bound (which must dominate the
// observed error — checked here, not just promised).
//
// Phase B (the n² wall): stands up an index at --big-nodes isolated nodes
// via CreateIsolated — the sparse-direct (1−C)·I entry point — applies a
// burst of edge inserts, and reports resident payload vs the analytic
// n²·8 dense slab that a dense ScoreStore would have had to allocate up
// front (at the default n = 131072 that slab is ~137 GB; this process
// never allocates it).
//
// Phase C (--churn, off by default): sustained ingest against a
// mostly-sparse store. A power-law insert stream is applied in batches to
// an isolated-node index (all rows start sparse), every touched row is
// re-sparsified after each batch (the publish-time tier policy's job in
// the serving tier), and Publish() closes the epoch. The headline number
// is the peak transient dense footprint: max over epochs of
// epoch_peak_dense_bytes, the high-water mark of dense payload *during*
// each batch. The RowWriter write path merges scatter sets into the
// sparse rows in place and only spills rows that trip the max_density
// gate, so the bench hard-checks that the footprint stays at 0 bytes with
// no spills. (BENCH_sparse_store.json keeps the last A/B record against
// the retired densify-on-write path: 24.1 MB vs 0 B at n = 16384.)
//
// Usage: bench_sparse_store [--nodes N] [--updates U] [--queries Q]
//          [--epsilon E] [--topk K] [--big-nodes N] [--big-updates U]
//          [--churn] [--churn-nodes N] [--churn-updates U]
//          [--churn-batch B] [--json PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct Config {
  std::size_t nodes = 500;
  std::size_t updates = 200;
  std::size_t queries = 2000;
  double epsilon = 1e-4;
  std::size_t topk = 10;
  std::size_t big_nodes = 131072;
  std::size_t big_updates = 64;
  bool churn = false;
  std::size_t churn_nodes = 16384;
  std::size_t churn_updates = 2048;
  std::size_t churn_batch = 32;
  double churn_epsilon = 1e-5;
  std::string json_path = "BENCH_sparse_store.json";
};

struct RunResult {
  double ingest_seconds = 0.0;
  double query_seconds = 0.0;
  service::ServiceStats stats;
  la::DenseMatrix final_scores;  // materialized final snapshot
};

// Replays the insert stream through one service (single writer, queries
// issued after the final publish so the measured tier mix is the settled
// one) and materializes the final snapshot for the accuracy comparison.
RunResult RunServing(const Config& config,
                     const graph::DynamicDiGraph& base,
                     const std::vector<graph::EdgeUpdate>& updates,
                     bool tiered) {
  simrank::SimRankOptions options;  // paper defaults: C = 0.6, K = 15
  options.damping = 0.6;
  options.iterations = 15;
  service::ServiceOptions service_options;
  service_options.max_batch = 64;
  service_options.topk_index_capacity = 64;
  if (tiered) {
    service_options.sparse.enabled = true;
    service_options.sparse.epsilon = config.epsilon;
  }

  auto index = core::DynamicSimRank::Create(base, options);
  INCSR_CHECK(index.ok(), "index build failed: %s",
              index.status().ToString().c_str());
  auto service = service::SimRankService::Create(std::move(index).value(),
                                                 service_options);
  INCSR_CHECK(service.ok(), "service build failed");

  RunResult result;
  WallTimer ingest_timer;
  for (const graph::EdgeUpdate& u : updates) {
    INCSR_CHECK((*service)->Submit(u).ok(), "submit failed");
  }
  INCSR_CHECK((*service)->Flush().ok(), "flush failed");
  result.ingest_seconds = ingest_timer.ElapsedSeconds();

  // Zipf-skewed closed-loop queries against the settled epoch (no further
  // publishes, so the tier mix under measurement cannot shift).
  bench::ZipfSampler zipf(config.nodes, 0.8);
  Rng rng(99);
  WallTimer query_timer;
  for (std::size_t q = 0; q < config.queries; ++q) {
    const auto node = static_cast<graph::NodeId>(zipf.Next(&rng));
    auto top = (*service)->TopKFor(node, config.topk);
    INCSR_CHECK(top.ok(), "query failed");
  }
  result.query_seconds = query_timer.ElapsedSeconds();

  result.stats = (*service)->stats();
  result.final_scores = (*service)->Snapshot()->scores.ToDense();
  return result;
}

void ReportRun(const char* label, const Config& config, const RunResult& r) {
  const double dense_bytes =
      static_cast<double>(config.nodes) * static_cast<double>(config.nodes) * 8;
  const double resident = dense_bytes - static_cast<double>(r.stats.bytes_saved);
  std::printf(
      "%-10s %9.0f upd/s  %8.0f qry/s  resident %8.2f MB  "
      "(%llu sparse / %llu dense rows)\n",
      label,
      static_cast<double>(r.stats.applied) / r.ingest_seconds,
      static_cast<double>(config.queries) / r.query_seconds, resident / 1e6,
      static_cast<unsigned long long>(r.stats.rows_sparse),
      static_cast<unsigned long long>(r.stats.rows_dense));
}

struct ChurnResult {
  double ingest_seconds = 0.0;
  std::size_t applied = 0;
  std::uint64_t peak_dense_bytes = 0;  // max over epochs of the watermark
  la::ScoreStoreStats store_stats;
};

// One churn run: batches of power-law inserts into an isolated-node index
// whose rows all start sparse, re-sparsifying touched rows after each
// batch (standing in for the serving tier's publish-time policy) and
// closing the epoch with Publish() so epoch_peak_dense_bytes measures the
// transient dense footprint of exactly one batch.
ChurnResult RunChurn(const Config& config,
                     const std::vector<graph::EdgeUpdate>& updates) {
  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 15;
  auto index = core::DynamicSimRank::CreateIsolated(
      config.churn_nodes, options, core::UpdateAlgorithm::kIncSR);
  INCSR_CHECK(index.ok(), "churn index failed: %s",
              index.status().ToString().c_str());
  la::ScoreStore* store = index->mutable_score_store();
  la::SparsityConfig sparsity;
  sparsity.epsilon = config.churn_epsilon;
  sparsity.max_density = 0.5;
  sparsity.error_amplification = 1.0 / (1.0 - options.damping);
  store->set_sparsity(sparsity);
  store->Publish();  // settle the construction epoch: watermark := resident

  ChurnResult result;
  WallTimer timer;
  for (std::size_t start = 0; start < updates.size();
       start += config.churn_batch) {
    const std::size_t end =
        std::min(start + config.churn_batch, updates.size());
    const std::vector<graph::EdgeUpdate> batch(updates.begin() + start,
                                               updates.begin() + end);
    INCSR_CHECK(index->ApplyBatch(batch).ok(), "churn batch failed");
    result.applied += batch.size();
    // Publish-time tier policy stand-in: push every touched row back to
    // the sparse tier (rows the batch kept sparse early-return here).
    if (index->AllScoreRowsTouched()) {
      for (std::size_t i = 0; i < config.churn_nodes; ++i) {
        store->SparsifyRow(i, {});
      }
    } else {
      for (std::int32_t row : index->TouchedScoreRows()) {
        store->SparsifyRow(static_cast<std::size_t>(row), {});
      }
    }
    result.peak_dense_bytes = std::max(result.peak_dense_bytes,
                                       store->stats().epoch_peak_dense_bytes);
    store->Publish();
  }
  result.ingest_seconds = timer.ElapsedSeconds();
  result.store_stats = store->stats();
  return result;
}

int Run(const Config& config) {
  bench::PrintHeader("sparse_store — tiered row backings vs the dense slab");

  // Power-law workload: citation growth, 80% base / 20% live inserts.
  graph::CitationModelParams params;
  params.num_nodes = config.nodes;
  params.seed = 7;
  auto stream = graph::PreferentialCitation(params);
  INCSR_CHECK(stream.ok(), "generator failed");
  const std::size_t base_edges = stream->size() * 8 / 10;
  graph::DynamicDiGraph base =
      graph::MaterializeGraph(config.nodes, stream.value(), base_edges);
  std::vector<graph::EdgeUpdate> updates;
  for (std::size_t k = base_edges;
       k < stream->size() && updates.size() < config.updates; ++k) {
    updates.push_back({graph::UpdateKind::kInsert, (*stream)[k].edge.src,
                       (*stream)[k].edge.dst});
  }
  std::printf("n = %zu, |E| = %zu base + %zu live inserts, eps = %g, "
              "k = %zu, %zu queries (zipf 0.8)\n",
              config.nodes, base.num_edges(), updates.size(), config.epsilon,
              config.topk, config.queries);

  RunResult dense = RunServing(config, base, updates, /*tiered=*/false);
  RunResult sparse = RunServing(config, base, updates, /*tiered=*/true);
  ReportRun("dense:", config, dense);
  ReportRun("sparse:", config, sparse);

  // Accuracy ledger: observed error vs the recorded bound.
  const double max_err =
      eval::MaxAbsError(sparse.final_scores, dense.final_scores);
  auto ndcg = eval::NdcgAtK(sparse.final_scores, dense.final_scores, 50);
  INCSR_CHECK(ndcg.ok(), "ndcg failed");
  const double bound = sparse.stats.sparse_max_error_bound;
  std::printf(
      "accuracy: max |served - exact| = %.3g  (recorded bound %.3g, "
      "%llu eps-drops)  NDCG@50 = %.6f\n",
      max_err, bound, static_cast<unsigned long long>(
                          sparse.stats.sparse_eps_drops),
      *ndcg);
  // The two runs batch independently (boundaries depend on applier
  // timing) and coalescing makes FP order a function of the boundary, so
  // ~1e-7-scale noise exists even with sparsity off; the strict <= bound
  // property is pinned by tests/sparse_store_test.cc with deterministic
  // unit batches. Here the bound must dominate up to that noise.
  constexpr double kBatchingNoise = 1e-6;
  INCSR_CHECK(max_err <= bound + kBatchingNoise,
              "observed error %.3g exceeds the store's recorded bound %.3g",
              max_err, bound);
  std::printf(
      "tier policy: %llu demotions; graph snapshots copy-on-wrote %.1f KB\n",
      static_cast<unsigned long long>(sparse.stats.tier_demotions),
      static_cast<double>(sparse.stats.graph_bytes_copied) / 1e3);

  const double dense_bytes =
      static_cast<double>(config.nodes) * static_cast<double>(config.nodes) * 8;
  const double sparse_resident =
      dense_bytes - static_cast<double>(sparse.stats.bytes_saved);
  const double reduction =
      sparse_resident > 0.0 ? dense_bytes / sparse_resident : 0.0;
  std::printf("memory: %.2f MB dense -> %.2f MB tiered (%.1fx reduction)\n",
              dense_bytes / 1e6, sparse_resident / 1e6, reduction);

  // Phase B: an n whose dense slab this process could never allocate.
  bench::PrintHeader("sparse_store — past the dense n² wall");
  double big_resident = 0.0;
  double big_ingest_seconds = 0.0;
  {
    simrank::SimRankOptions options;
    options.damping = 0.6;
    options.iterations = 15;
    auto index = core::DynamicSimRank::CreateIsolated(config.big_nodes,
                                                      options);
    INCSR_CHECK(index.ok(), "isolated index failed: %s",
                index.status().ToString().c_str());
    service::ServiceOptions service_options;
    service_options.topk_index_capacity = 0;  // O(n) per-node entries: off
    service_options.cache_capacity = 0;
    service_options.sparse.enabled = true;
    service_options.sparse.epsilon = config.epsilon;
    auto service = service::SimRankService::Create(std::move(index).value(),
                                                   service_options);
    INCSR_CHECK(service.ok(), "big service build failed");
    // A burst of inserts confined to a small neighborhood: the affected
    // area stays tiny, so the index absorbs them at full n.
    Rng rng(3);
    WallTimer timer;
    std::size_t accepted = 0;
    while (accepted < config.big_updates) {
      const auto src = static_cast<graph::NodeId>(rng.NextBounded(512));
      auto dst = static_cast<graph::NodeId>(rng.NextBounded(512));
      if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % 512);
      Status s = (*service)->Submit({graph::UpdateKind::kInsert, src, dst});
      INCSR_CHECK(s.ok(), "big submit failed");
      ++accepted;
    }
    INCSR_CHECK((*service)->Flush().ok(), "big flush failed");
    big_ingest_seconds = timer.ElapsedSeconds();
    service::ServiceStats stats = (*service)->stats();
    const double analytic_dense = static_cast<double>(config.big_nodes) *
                                  static_cast<double>(config.big_nodes) * 8;
    big_resident = analytic_dense - static_cast<double>(stats.bytes_saved);
    auto score = (*service)->Score(0, 1);
    INCSR_CHECK(score.ok(), "big score failed");
    std::printf(
        "n = %zu: resident %.2f MB vs %.1f GB dense slab (%.0fx), "
        "%llu inserts absorbed in %.3f s (%llu sparse / %llu dense rows)\n",
        config.big_nodes, big_resident / 1e6, analytic_dense / 1e9,
        analytic_dense / big_resident,
        static_cast<unsigned long long>(stats.applied), big_ingest_seconds,
        static_cast<unsigned long long>(stats.rows_sparse),
        static_cast<unsigned long long>(stats.rows_dense));
  }

  // Phase C: sustained-ingest churn on a mostly-sparse store.
  ChurnResult churn;
  if (config.churn) {
    bench::PrintHeader("sparse_store — churn: transient dense footprint");
    graph::CitationModelParams churn_params;
    churn_params.num_nodes = config.churn_nodes;
    churn_params.seed = 11;
    auto churn_stream = graph::PreferentialCitation(churn_params);
    INCSR_CHECK(churn_stream.ok(), "churn generator failed");
    std::vector<graph::EdgeUpdate> churn_updates;
    for (const auto& e : *churn_stream) {
      if (churn_updates.size() >= config.churn_updates) break;
      churn_updates.push_back(
          {graph::UpdateKind::kInsert, e.edge.src, e.edge.dst});
    }
    std::printf("n = %zu, %zu power-law inserts in batches of %zu, "
                "eps = %g, max_density 0.5\n",
                config.churn_nodes, churn_updates.size(), config.churn_batch,
                config.churn_epsilon);
    churn = RunChurn(config, churn_updates);
    std::printf(
        "%9.0f upd/s  peak transient dense %8.3f MB  "
        "(%llu spills, %llu sparse merges)\n",
        static_cast<double>(churn.applied) / churn.ingest_seconds,
        static_cast<double>(churn.peak_dense_bytes) / 1e6,
        static_cast<unsigned long long>(churn.store_stats.rows_spilled_dense),
        static_cast<unsigned long long>(
            churn.store_stats.sparse_write_merges));
    INCSR_CHECK(churn.peak_dense_bytes == 0,
                "churn peak transient dense bytes %llu, expected 0",
                static_cast<unsigned long long>(churn.peak_dense_bytes));
    INCSR_CHECK(churn.store_stats.rows_spilled_dense == 0,
                "churn spilled %llu rows to dense, expected 0",
                static_cast<unsigned long long>(
                    churn.store_stats.rows_spilled_dense));
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "sparse_store")
        .Set("nodes", config.nodes)
        .Set("base_edges", base.num_edges())
        .Set("updates", updates.size())
        .Set("queries", config.queries)
        .Set("epsilon", config.epsilon)
        .Set("topk", config.topk);
    const RunResult* runs[] = {&dense, &sparse};
    const char* labels[] = {"dense", "sparse"};
    for (int i = 0; i < 2; ++i) {
      const RunResult& r = *runs[i];
      bench::JsonObject* run = root.AddObject("runs");
      run->Set("label", labels[i])
          .Set("updates_per_sec",
               static_cast<double>(r.stats.applied) / r.ingest_seconds)
          .Set("queries_per_sec",
               static_cast<double>(config.queries) / r.query_seconds)
          .Set("resident_bytes",
               dense_bytes - static_cast<double>(r.stats.bytes_saved))
          .Set("rows_sparse", r.stats.rows_sparse)
          .Set("rows_dense", r.stats.rows_dense)
          .Set("bytes_saved", r.stats.bytes_saved)
          .Set("eps_drops", r.stats.sparse_eps_drops)
          .Set("max_error_bound", r.stats.sparse_max_error_bound)
          .Set("tier_demotions", r.stats.tier_demotions)
          .Set("graph_bytes_copied", r.stats.graph_bytes_copied);
    }
    root.Set("max_abs_error_observed", max_err)
        .Set("ndcg_at_50", *ndcg)
        .Set("memory_reduction", reduction)
        .Set("big_nodes", config.big_nodes)
        .Set("big_resident_bytes", big_resident)
        .Set("big_dense_bytes", static_cast<double>(config.big_nodes) *
                                    static_cast<double>(config.big_nodes) * 8)
        .Set("big_ingest_seconds", big_ingest_seconds);
    if (config.churn) {
      root.AddObject("churn_runs")
          ->Set("label", "sparse_native")
          .Set("updates_per_sec",
               static_cast<double>(churn.applied) / churn.ingest_seconds)
          .Set("peak_transient_dense_bytes", churn.peak_dense_bytes)
          .Set("rows_spilled_dense", churn.store_stats.rows_spilled_dense)
          .Set("sparse_write_merges", churn.store_stats.sparse_write_merges)
          .Set("rows_sparsified", churn.store_stats.rows_sparsified);
      root.Set("churn_nodes", config.churn_nodes)
          .Set("churn_updates", churn.applied)
          .Set("churn_batch", config.churn_batch)
          .Set("churn_epsilon", config.churn_epsilon);
    }
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      config.nodes = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--updates") == 0) {
      config.updates = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      config.queries = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--epsilon") == 0) {
      config.epsilon = std::atof(next());
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      config.topk = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--big-nodes") == 0) {
      config.big_nodes = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--big-updates") == 0) {
      config.big_updates = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      config.churn = true;
    } else if (std::strcmp(argv[i], "--churn-nodes") == 0) {
      config.churn_nodes = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--churn-updates") == 0) {
      config.churn_updates = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--churn-batch") == 0) {
      config.churn_batch = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--churn-epsilon") == 0) {
      config.churn_epsilon = std::atof(next());
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return Run(config);
}

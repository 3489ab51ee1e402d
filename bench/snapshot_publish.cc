// snapshot_publish — microbenchmark for the epoch-publish path of the three
// copy-on-write tables a serving epoch pins: la::ScoreStore::Publish,
// graph::DynamicDiGraph::Snapshot and service::TopKIndex::Publish. All
// three sit on one paged table (common/cow_table.h), so each publish
// copies ⌈n/256⌉ page pointers; the writes before it clone one page per
// touched page plus the touched rows themselves.
//
// For each n and each fixed touched-row count T it runs E epochs of: touch
// T distinct rows of every table (store: a one-entry write session; graph:
// toggle a self-loop; index: re-rank the row), then publish each table
// while the previous epoch's views stay pinned. It reports the median
// publish call per table and the mean cost of the epoch's writes, where
// the page clones land. The headline shape: at fixed T, publish cost is
// flat in n.
//
// The score store is ScaledIdentity (one stored entry per row), so n =
// 131072 fits in memory; building the top-k index still scans every row
// once (O(n²)), which dominates the run time at the largest sizes.
//
// Flags: bench_snapshot_publish --help.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"
#include "la/score_store.h"
#include "service/topk_index.h"

namespace {

using namespace incsr;

struct Config {
  std::vector<std::size_t> sizes = {16384, 32768, 65536, 131072};
  std::vector<std::size_t> touched = {7, 64};
  std::size_t epochs = 20;
  std::string json_path;  // when set, emit a BENCH json trajectory file
};

// Distinct pseudo-random rows a batch "touches" (stable per epoch seed).
std::vector<std::int32_t> TouchedRows(std::size_t n, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::int32_t> rows;
  while (rows.size() < count) {
    const auto r = static_cast<std::size_t>(rng.NextBounded(n));
    if (!seen[r]) {
      seen[r] = 1;
      rows.push_back(static_cast<std::int32_t>(r));
    }
  }
  return rows;
}

// Per-table timings over the epochs of one (n, T) run.
struct TableCost {
  std::vector<double> publish_us;  // one sample per epoch
  double write_us = 0.0;           // summed over epochs
  double MedianPublishUs() {
    std::sort(publish_us.begin(), publish_us.end());
    return publish_us[publish_us.size() / 2];
  }
};

// Times `write` (the epoch's writes) and `publish` (the publish call) on
// one table, then swaps the new view into *pinned outside the timer.
template <typename View, typename Write, typename Publish>
void TimeEpoch(TableCost* cost, View* pinned, Write&& write,
               Publish&& publish) {
  WallTimer timer;
  write();
  cost->write_us += timer.ElapsedSeconds() * 1e6;
  timer.Restart();
  View next = publish();
  cost->publish_us.push_back(timer.ElapsedSeconds() * 1e6);
  *pinned = std::move(next);
}

void RunSize(const Config& config, std::size_t n, bench::JsonObject* json) {
  WallTimer setup;
  la::ScoreStore store = la::ScoreStore::ScaledIdentity(n, 0.4);
  auto edges = graph::ErdosRenyiGnm(n, 2 * n, 11);
  INCSR_CHECK(edges.ok(), "generator");
  graph::DynamicDiGraph graph = graph::MaterializeGraph(n, *edges);
  service::TopKIndex index(8);
  index.RebuildAll(store);
  std::printf("\nn = %zu (setup %.1f s)\n", n, setup.ElapsedSeconds());
  std::printf("  %-8s %-12s %16s %18s\n", "touched", "table",
              "publish us (med)", "writes us / epoch");

  // Pinned views of the previous epoch, as a reader would hold them.
  la::ScoreStore::View store_view = store.Publish();
  graph::DynamicDiGraph::View graph_view = graph.Snapshot();
  service::TopKIndex::View index_view = index.Publish();
  la::RowWriter writer;
  for (std::size_t touched : config.touched) {
    TableCost costs[3];
    for (std::size_t e = 0; e < config.epochs; ++e) {
      const std::vector<std::int32_t> rows =
          TouchedRows(n, std::min(touched, n), 77 + e);
      TimeEpoch(
          &costs[0], &store_view,
          [&] {
            for (std::int32_t r : rows) {
              store.BeginWriteRow(static_cast<std::size_t>(r), &writer);
              writer.Add(static_cast<std::size_t>(r), 1e-12);
              store.CommitWriteRow(&writer);
            }
          },
          [&] { return store.Publish(); });
      TimeEpoch(
          &costs[1], &graph_view,
          [&] {
            for (std::int32_t r : rows) {
              const Status s = graph.HasEdge(r, r) ? graph.RemoveEdge(r, r)
                                                   : graph.AddEdge(r, r);
              INCSR_CHECK(s.ok(), "self-loop toggle");
            }
          },
          [&] { return graph.Snapshot(); });
      TimeEpoch(
          &costs[2], &index_view, [&] { index.RebuildRows(store, rows); },
          [&] { return index.Publish(); });
    }
    const char* names[3] = {"score_store", "graph", "topk_index"};
    for (int t = 0; t < 3; ++t) {
      const double publish_us = costs[t].MedianPublishUs();
      const double write_us =
          costs[t].write_us / static_cast<double>(config.epochs);
      std::printf("  %-8zu %-12s %16.2f %18.1f\n", touched, names[t],
                  publish_us, write_us);
      if (json != nullptr) {
        json->AddObject("results")
            ->Set("nodes", n)
            .Set("touched_rows", touched)
            .Set("table", names[t])
            .Set("publish_us_median", publish_us)
            .Set("write_us_per_epoch", write_us);
      }
    }
  }
  // Keep the pinned views observable so the publishes cannot be dropped.
  INCSR_CHECK(store_view.rows() == n && graph_view.num_nodes() == n &&
                  index_view.rows() == n,
              "published geometry");
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  FlagTable flags("bench_snapshot_publish");
  flags.IntList("--sizes", "N1,N2,...", "node counts n", &config.sizes, 2)
      .IntList("--touched", "T1,...", "rows written per epoch", &config.touched)
      // The median and per-epoch means divide by this.
      .Int("--epochs", "E", "epochs per (n, T)", &config.epochs, 1)
      .String("--json", "PATH", "JSON trajectory file", &config.json_path);
  flags.ParseOrExit(argc, argv);

  bench::PrintHeader(
      "snapshot_publish — per-table copy-on-write epoch publish");
  std::printf(
      "per epoch: touch T distinct rows of each table, then publish it "
      "(%zu epochs; publish = median call, writes = mean per epoch)\n",
      config.epochs);
  bench::JsonObject root;
  root.Set("bench", "snapshot_publish").Set("epochs", config.epochs);
  bench::JsonObject* json = config.json_path.empty() ? nullptr : &root;
  for (std::size_t n : config.sizes) RunSize(config, n, json);
  if (json != nullptr) {
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

// Tests for the component-sharded serving layer (src/shard/): the
// deterministic ShardPlan partitioner, and the central property of the
// subsystem — a ShardedSimRankService over a multi-component graph is
// observationally BITWISE identical to a single SimRankService at every
// shard count, across mixed insert/delete streams, Zipf-skewed queries,
// and the component-merge path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/components.h"
#include "graph/digraph.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "service/simrank_service.h"
#include "shard/shard_plan.h"
#include "shard/sharded_service.h"
#include "stats_schema_util.h"

namespace incsr::shard {
namespace {

// ---- Fixture: a multi-component graph with INTERLEAVED global ids --------
//
// Components must not be contiguous id ranges, or the remap tables would
// never be exercised: global ids are dealt round-robin across components,
// so every component's nodes are spread over the whole id space.
struct MultiComponentGraph {
  graph::DynamicDiGraph graph;
  // component_nodes[c][local] = global id (ascending in local).
  std::vector<std::vector<graph::NodeId>> component_nodes;
};

MultiComponentGraph BuildMultiComponentGraph(
    const std::vector<std::size_t>& sizes,
    const std::vector<std::size_t>& edge_counts, std::uint64_t seed) {
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  MultiComponentGraph out;
  out.graph = graph::DynamicDiGraph(total);
  out.component_nodes.resize(sizes.size());
  // Round-robin id deal: global id g belongs to the first component that
  // still needs nodes at turn g % #components.
  std::vector<std::size_t> remaining = sizes;
  std::size_t c = 0;
  for (std::size_t g = 0; g < total; ++g) {
    while (remaining[c] == 0) c = (c + 1) % sizes.size();
    out.component_nodes[c].push_back(static_cast<graph::NodeId>(g));
    --remaining[c];
    c = (c + 1) % sizes.size();
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto stream = graph::ErdosRenyiGnm(sizes[i], edge_counts[i], seed + i);
    EXPECT_TRUE(stream.ok());
    for (const graph::TimestampedEdge& te : stream.value()) {
      EXPECT_TRUE(out.graph
                      .AddEdge(out.component_nodes[i][static_cast<std::size_t>(
                                   te.edge.src)],
                               out.component_nodes[i][static_cast<std::size_t>(
                                   te.edge.dst)])
                      .ok());
    }
  }
  return out;
}

// Mixed insert/delete stream confined to components (so no merges are
// triggered), interleaved across components. Deletions and insertions are
// sampled from disjoint edge sets, so the stream is valid in any order.
std::vector<graph::EdgeUpdate> BuildMixedStream(
    const MultiComponentGraph& mc, std::size_t per_component_updates,
    std::uint64_t seed) {
  std::vector<std::vector<graph::EdgeUpdate>> per_component;
  Rng rng(seed);
  for (const std::vector<graph::NodeId>& nodes : mc.component_nodes) {
    // Re-derive the component subgraph to sample valid updates.
    graph::DynamicDiGraph sub(nodes.size());
    for (std::size_t l = 0; l < nodes.size(); ++l) {
      for (graph::NodeId dst : mc.graph.OutNeighbors(nodes[l])) {
        auto it = std::lower_bound(nodes.begin(), nodes.end(), dst);
        EXPECT_TRUE(it != nodes.end() && *it == dst) << "edge leaves component";
        EXPECT_TRUE(sub.AddEdge(static_cast<graph::NodeId>(l),
                                static_cast<graph::NodeId>(it - nodes.begin()))
                        .ok());
      }
    }
    const std::size_t deletions =
        std::min(sub.num_edges() / 2, per_component_updates / 2);
    const std::size_t insertions = per_component_updates - deletions;
    auto del = graph::SampleDeletions(sub, deletions, &rng);
    auto ins = graph::SampleInsertions(sub, insertions, &rng);
    EXPECT_TRUE(del.ok() && ins.ok());
    std::vector<graph::EdgeUpdate> mixed;
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < del->size() || b < ins->size()) {
      if (a < del->size()) mixed.push_back((*del)[a++]);
      if (b < ins->size()) mixed.push_back((*ins)[b++]);
    }
    for (graph::EdgeUpdate& u : mixed) {  // local -> global
      u.src = nodes[static_cast<std::size_t>(u.src)];
      u.dst = nodes[static_cast<std::size_t>(u.dst)];
    }
    per_component.push_back(std::move(mixed));
  }
  std::vector<graph::EdgeUpdate> interleaved;
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (const auto& stream : per_component) {
      if (k < stream.size()) {
        interleaved.push_back(stream[k]);
        any = true;
      }
    }
    if (!any) break;
  }
  return interleaved;
}

// Tiny Zipf(θ) sampler over [0, n) — CDF + binary search, like the bench
// harness's, so query skew concentrates on low ranks.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (std::size_t r = 0; r < n; ++r) cdf_[r] /= total;
  }
  std::size_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

service::ServiceOptions UnitServiceOptions(
    std::size_t topk_index_capacity = 4096) {
  service::ServiceOptions options;
  options.max_batch = 64;
  options.topk_index_capacity = topk_index_capacity;
  return options;
}

// The single-service reference runs with the per-node top-k index OFF, so
// every comparison below is an index-path vs row-scan-oracle cross-check
// on top of the shard-count invariance.
Result<std::unique_ptr<service::SimRankService>> MakeSingleService(
    const graph::DynamicDiGraph& graph,
    core::UpdateAlgorithm algorithm = core::UpdateAlgorithm::kIncSR) {
  auto index = core::DynamicSimRank::Create(graph, {}, algorithm);
  if (!index.ok()) return index.status();
  return service::SimRankService::Create(std::move(index).value(),
                                         UnitServiceOptions(0));
}

// Bitwise comparison of every observable query surface. `probes` bounds
// the number of Zipf-sampled TopKFor query nodes.
void ExpectIdenticalViews(const service::SimRankService& single,
                          const ShardedSimRankService& sharded, std::size_t n,
                          Rng* rng, std::size_t probes) {
  // Score: all pairs, exact FP equality (cross-shard must be exact 0.0).
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      auto want = single.Score(static_cast<graph::NodeId>(a),
                               static_cast<graph::NodeId>(b));
      auto got = sharded.Score(static_cast<graph::NodeId>(a),
                               static_cast<graph::NodeId>(b));
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want.value(), got.value()) << "Score(" << a << "," << b << ")";
    }
  }
  // TopKFor under Zipf-skewed query nodes, k from 0 through past n so the
  // zero-padding merge and the k-edge cases are exercised.
  Zipf zipf(n, 1.0);
  for (std::size_t p = 0; p < probes; ++p) {
    const auto node = static_cast<graph::NodeId>(zipf.Next(rng));
    for (std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{10},
                          n + 5}) {
      auto want = single.TopKFor(node, k);
      auto got = sharded.TopKFor(node, k);
      ASSERT_TRUE(want.ok() && got.ok());
      ASSERT_EQ(want.value(), got.value())
          << "TopKFor(" << node << ", " << k << ")";
    }
  }
  // TopKPairs including k past every positive pair, so the cross-shard
  // zero-pair generator's ordering is fully compared too.
  for (std::size_t k : {std::size_t{5}, std::size_t{25}, n * n}) {
    ASSERT_EQ(single.TopKPairs(k), sharded.TopKPairs(k)) << "TopKPairs " << k;
  }
}

// Drives the same stream through a single service and a sharded one in
// deterministic unit batches (Flush after every Submit pins the batch —
// and therefore the coalescing — boundaries), comparing all query
// surfaces along the way and at the end.
void RunShardCountInvariance(std::size_t num_shards,
                             core::UpdateAlgorithm algorithm,
                             std::size_t topk_index_capacity = 4096) {
  MultiComponentGraph mc =
      BuildMultiComponentGraph({12, 9, 7, 5}, {40, 26, 18, 10}, 77);
  const std::size_t n = mc.graph.num_nodes();
  std::vector<graph::EdgeUpdate> stream = BuildMixedStream(mc, 8, 1234);
  ASSERT_FALSE(stream.empty());

  auto single = MakeSingleService(mc.graph, algorithm);
  ASSERT_TRUE(single.ok());
  ShardedServiceOptions sharded_options;
  sharded_options.num_shards = num_shards;
  sharded_options.per_shard = UnitServiceOptions(topk_index_capacity);
  auto sharded = ShardedSimRankService::Create(mc.graph, {}, sharded_options,
                                               algorithm);
  ASSERT_TRUE(sharded.ok());

  Rng rng(99);
  ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/3);
  std::size_t step = 0;
  for (const graph::EdgeUpdate& update : stream) {
    ASSERT_TRUE((*single)->Submit(update).ok());
    ASSERT_TRUE((*single)->Flush().ok());
    ASSERT_TRUE((*sharded)->Submit(update).ok());
    ASSERT_TRUE((*sharded)->Flush().ok());
    if (++step % 7 == 0) {
      ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/2);
    }
  }
  ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/5);

  ShardedStats stats = (*sharded)->stats();
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(stats.total.applied, (*single)->stats().applied);
  EXPECT_EQ(stats.active_shards,
            std::min(num_shards, mc.component_nodes.size()));
  // Aggregated epoch is the max per-shard epoch, never a sum (regression
  // for the old field-wise += that produced meaningless epoch totals).
  std::uint64_t max_epoch = 0;
  std::uint64_t index_served = 0;
  std::uint64_t index_fallbacks = 0;
  for (const ShardedStats::ShardEntry& entry : stats.per_shard) {
    max_epoch = std::max(max_epoch, entry.stats.epoch);
    index_served += entry.stats.topk_index_served;
    index_fallbacks += entry.stats.topk_index_fallbacks;
  }
  EXPECT_EQ(stats.total.epoch, max_epoch);
  // The new index counters flow through the sharded aggregation.
  EXPECT_EQ(stats.total.topk_index_served, index_served);
  EXPECT_EQ(stats.total.topk_index_fallbacks, index_fallbacks);
  if (topk_index_capacity >= n) {
    // Every per-shard entry is complete: the whole cross-shard query load
    // above was served from the index, bitwise equal to the scan oracle.
    EXPECT_GT(stats.total.topk_index_served, 0u);
    EXPECT_EQ(stats.total.topk_index_fallbacks, 0u);
  } else if (topk_index_capacity == 0) {
    EXPECT_EQ(stats.total.topk_index_served, 0u);
    EXPECT_EQ(stats.total.topk_index_fallbacks, 0u);
  } else {
    // Underfull capacity: k = 0 probes serve from the index, larger k
    // probes fall back — both paths ran and stayed bitwise identical.
    EXPECT_GT(stats.total.topk_index_served, 0u);
    EXPECT_GT(stats.total.topk_index_fallbacks, 0u);
  }
}

// ---- ShardPlan -----------------------------------------------------------

TEST(ShardPlan, LocalIdsAscendWithGlobalIdsAndRoundTrip) {
  MultiComponentGraph mc = BuildMultiComponentGraph({6, 5, 4}, {8, 6, 4}, 3);
  ShardPlan plan = ShardPlan::Build(mc.graph, 2);
  ASSERT_EQ(plan.num_shards(), 2u);
  EXPECT_EQ(plan.num_nodes(), mc.graph.num_nodes());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const std::vector<graph::NodeId>& nodes = plan.ShardNodes(s);
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
    for (std::size_t l = 0; l < nodes.size(); ++l) {
      EXPECT_EQ(plan.ShardOf(nodes[l]), s);
      EXPECT_EQ(plan.ToLocal(nodes[l]), static_cast<graph::NodeId>(l));
      EXPECT_EQ(plan.ToGlobal(s, static_cast<graph::NodeId>(l)), nodes[l]);
    }
  }
}

TEST(ShardPlan, ComponentsAreNeverSplit) {
  MultiComponentGraph mc = BuildMultiComponentGraph({6, 5, 4, 3}, {8, 6, 4, 3}, 5);
  ShardPlan plan = ShardPlan::Build(mc.graph, 3);
  graph::ComponentDecomposition wcc =
      graph::WeaklyConnectedComponents(mc.graph);
  for (std::size_t v = 0; v < mc.graph.num_nodes(); ++v) {
    for (std::size_t w = 0; w < mc.graph.num_nodes(); ++w) {
      if (wcc.component_of[v] == wcc.component_of[w]) {
        EXPECT_EQ(plan.ShardOf(static_cast<graph::NodeId>(v)),
                  plan.ShardOf(static_cast<graph::NodeId>(w)));
      }
    }
  }
}

TEST(ShardPlan, DeterministicAndBalanced) {
  MultiComponentGraph mc =
      BuildMultiComponentGraph({10, 9, 8, 3, 2}, {20, 16, 12, 2, 1}, 11);
  ShardPlan a = ShardPlan::Build(mc.graph, 3);
  ShardPlan b = ShardPlan::Build(mc.graph, 3);
  ASSERT_EQ(a.num_shards(), b.num_shards());
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    EXPECT_EQ(a.ShardNodes(s), b.ShardNodes(s));
  }
  // Sizes {10, 9, 8, 3, 2} across 3 shards: greedy by descending size
  // gives loads {10}, {9, 2}, {8, 3} — max/min spread of 1.
  std::vector<std::size_t> loads;
  for (std::size_t s = 0; s < a.num_shards(); ++s) {
    loads.push_back(a.ShardNodes(s).size());
  }
  EXPECT_EQ(*std::max_element(loads.begin(), loads.end()) -
                *std::min_element(loads.begin(), loads.end()),
            1u);
}

TEST(ShardPlan, ShardCountClampsToComponentCount) {
  MultiComponentGraph mc = BuildMultiComponentGraph({4, 3}, {4, 3}, 2);
  ShardPlan plan = ShardPlan::Build(mc.graph, 8);
  EXPECT_EQ(plan.num_shards(), 2u);
}

TEST(ShardPlan, SubgraphPreservesStructure) {
  MultiComponentGraph mc = BuildMultiComponentGraph({5, 4}, {7, 5}, 9);
  ShardPlan plan = ShardPlan::Build(mc.graph, 2);
  std::size_t edges = 0;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    graph::DynamicDiGraph sub = plan.BuildSubgraph(mc.graph, s);
    edges += sub.num_edges();
    for (const graph::Edge& e : sub.Edges()) {
      EXPECT_TRUE(mc.graph.HasEdge(plan.ToGlobal(s, e.src),
                                   plan.ToGlobal(s, e.dst)));
    }
  }
  EXPECT_EQ(edges, mc.graph.num_edges());
}

TEST(ShardPlan, MergeShardsResortsAndEmptiesSource) {
  MultiComponentGraph mc = BuildMultiComponentGraph({4, 3}, {4, 3}, 6);
  ShardPlan plan = ShardPlan::Build(mc.graph, 2);
  std::vector<graph::NodeId> all = plan.ShardNodes(0);
  all.insert(all.end(), plan.ShardNodes(1).begin(), plan.ShardNodes(1).end());
  std::sort(all.begin(), all.end());
  plan.MergeShards(0, 1);
  EXPECT_EQ(plan.ShardNodes(0), all);
  EXPECT_TRUE(plan.ShardNodes(1).empty());
  EXPECT_EQ(plan.num_active_shards(), 1u);
  for (std::size_t l = 0; l < all.size(); ++l) {
    EXPECT_EQ(plan.ToLocal(all[l]), static_cast<graph::NodeId>(l));
    EXPECT_EQ(plan.ShardOf(all[l]), 0u);
  }
}

// ---- Sharded service: bitwise shard-count invariance ---------------------

TEST(ShardedService, BitwiseIdenticalToSingleServiceOneShard) {
  RunShardCountInvariance(1, core::UpdateAlgorithm::kIncSR);
}

TEST(ShardedService, BitwiseIdenticalToSingleServiceTwoShards) {
  RunShardCountInvariance(2, core::UpdateAlgorithm::kIncSR);
}

TEST(ShardedService, BitwiseIdenticalToSingleServiceFourShards) {
  RunShardCountInvariance(4, core::UpdateAlgorithm::kIncSR);
}

// The per-node index underfull at capacity 2: most probes (k = 3, 10,
// n + 5) fall back to row scans inside the shards, and the zero-pad merge
// must stay bitwise identical across the mixed served/fallback sources.
TEST(ShardedService, BitwiseIdenticalWithUnderfullIndex) {
  RunShardCountInvariance(2, core::UpdateAlgorithm::kIncSR,
                          /*topk_index_capacity=*/2);
  RunShardCountInvariance(4, core::UpdateAlgorithm::kIncSR,
                          /*topk_index_capacity=*/2);
}

// Index disabled entirely: the pre-index row-scan path, still invariant.
TEST(ShardedService, BitwiseIdenticalWithIndexDisabled) {
  RunShardCountInvariance(2, core::UpdateAlgorithm::kIncSR,
                          /*topk_index_capacity=*/0);
}

TEST(ShardedService, BitwiseIdenticalUnderIncUsr) {
  // Smaller fixture: Inc-uSR is dense O(n²) per update.
  MultiComponentGraph mc = BuildMultiComponentGraph({7, 5}, {12, 7}, 21);
  const std::size_t n = mc.graph.num_nodes();
  std::vector<graph::EdgeUpdate> stream = BuildMixedStream(mc, 4, 8);
  auto single = MakeSingleService(mc.graph, core::UpdateAlgorithm::kIncUSR);
  ASSERT_TRUE(single.ok());
  ShardedServiceOptions options;
  options.num_shards = 2;
  auto sharded = ShardedSimRankService::Create(
      mc.graph, {}, options, core::UpdateAlgorithm::kIncUSR);
  ASSERT_TRUE(sharded.ok());
  for (const graph::EdgeUpdate& update : stream) {
    ASSERT_TRUE((*single)->Submit(update).ok());
    ASSERT_TRUE((*single)->Flush().ok());
    ASSERT_TRUE((*sharded)->Submit(update).ok());
    ASSERT_TRUE((*sharded)->Flush().ok());
  }
  Rng rng(4);
  ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/3);
}

// ---- Component merge path ------------------------------------------------

TEST(ShardedService, CrossShardInsertMergesAndStaysIdentical) {
  MultiComponentGraph mc = BuildMultiComponentGraph({9, 7, 5}, {24, 15, 8}, 31);
  const std::size_t n = mc.graph.num_nodes();
  auto single = MakeSingleService(mc.graph);
  ASSERT_TRUE(single.ok());
  ShardedServiceOptions options;
  options.num_shards = 3;
  auto sharded = ShardedSimRankService::Create(mc.graph, {}, options);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ((*sharded)->stats().active_shards, 3u);

  Rng rng(17);
  auto drive = [&](const graph::EdgeUpdate& update) {
    ASSERT_TRUE((*single)->Submit(update).ok());
    ASSERT_TRUE((*single)->Flush().ok());
    ASSERT_TRUE((*sharded)->Submit(update).ok());
    ASSERT_TRUE((*sharded)->Flush().ok());
  };

  // A few in-component updates, then an edge JOINING components 0 and 1
  // (their smallest global members), then further updates inside the
  // merged component — which must route to the merged shard.
  std::vector<graph::EdgeUpdate> warmup = BuildMixedStream(mc, 3, 55);
  for (const graph::EdgeUpdate& u : warmup) drive(u);

  const graph::NodeId a = mc.component_nodes[0][0];
  const graph::NodeId b = mc.component_nodes[1][0];
  ASSERT_FALSE(mc.graph.HasEdge(a, b));
  drive({graph::UpdateKind::kInsert, a, b});

  ShardedStats after_merge = (*sharded)->stats();
  EXPECT_EQ(after_merge.merges, 1u);
  EXPECT_EQ(after_merge.active_shards, 2u);
  const std::size_t merged_n =
      mc.component_nodes[0].size() + mc.component_nodes[1].size();
  EXPECT_EQ(after_merge.merge_rebuild_rows, merged_n);
  EXPECT_EQ(after_merge.merge_rebuild_bytes,
            merged_n * merged_n * sizeof(double));
  // Gauges describe the live shards only: the merged-away shards' rows
  // are the merged shard's rows now, and must not be counted twice.
  EXPECT_EQ(after_merge.total.rows_sparse + after_merge.total.rows_dense,
            (*sharded)->num_nodes());
  std::uint64_t bytes_saved = 0;
  for (const ShardedStats::ShardEntry& entry : after_merge.per_shard) {
    bytes_saved += entry.stats.bytes_saved;
  }
  EXPECT_EQ(after_merge.total.bytes_saved, bytes_saved);
  ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/3);

  // Cross-component edges inside the merged shard are ordinary updates
  // now (no further merge), and the whole surface stays identical.
  const graph::NodeId c = mc.component_nodes[0][1];
  const graph::NodeId d = mc.component_nodes[1][1];
  drive({graph::UpdateKind::kInsert, d, c});
  drive({graph::UpdateKind::kDelete, a, b});
  EXPECT_EQ((*sharded)->stats().merges, 1u);
  ExpectIdenticalViews(**single, **sharded, n, &rng, /*probes=*/3);
}

TEST(ShardedService, CrossShardDeleteIsCountedNotApplied) {
  MultiComponentGraph mc = BuildMultiComponentGraph({5, 4}, {7, 5}, 13);
  auto single = MakeSingleService(mc.graph);
  ASSERT_TRUE(single.ok());
  ShardedServiceOptions options;
  options.num_shards = 2;
  auto sharded = ShardedSimRankService::Create(mc.graph, {}, options);
  ASSERT_TRUE(sharded.ok());

  const graph::EdgeUpdate bogus{graph::UpdateKind::kDelete,
                                mc.component_nodes[0][0],
                                mc.component_nodes[1][0]};
  ASSERT_TRUE((*single)->Submit(bogus).ok());
  ASSERT_TRUE((*single)->Flush().ok());
  ASSERT_TRUE((*sharded)->Submit(bogus).ok());
  ASSERT_TRUE((*sharded)->Flush().ok());

  EXPECT_EQ((*single)->stats().failed, 1u);
  ShardedStats stats = (*sharded)->stats();
  EXPECT_EQ(stats.router_failed, 1u);
  EXPECT_EQ(stats.total.failed, 1u);
  EXPECT_EQ(stats.merges, 0u);
  // Router drops keep the accounting identity the single service has.
  EXPECT_EQ(stats.total.submitted, stats.total.applied + stats.total.rejected +
                                       stats.total.failed +
                                       stats.total.queue_depth);
  Rng rng(2);
  ExpectIdenticalViews(**single, **sharded, mc.graph.num_nodes(), &rng, 2);
}

// ---- Stats aggregation (schema-driven) -------------------------------------
// Walks the ServiceStats field table, so a new counter is covered by its
// aggregation column with no test edit.

// Checks every leaf of `merged` against `a` and `b` by the leaf's
// aggregation; kGauge leaves add when `gauges_add`, else keep `a`'s value.
void ExpectMergedByAggregation(const service::ServiceStats& a,
                               const service::ServiceStats& b,
                               const service::ServiceStats& merged,
                               bool gauges_add) {
  const std::vector<test_util::StatLeaf> la = test_util::Leaves(a);
  const std::vector<test_util::StatLeaf> lb = test_util::Leaves(b);
  const std::vector<test_util::StatLeaf> lm = test_util::Leaves(merged);
  ASSERT_EQ(la.size(), lm.size());
  for (std::size_t i = 0; i < lm.size(); ++i) {
    SCOPED_TRACE(lm[i].name);
    std::visit(
        [&](const auto& va) {
          using T = std::remove_cvref_t<decltype(va)>;
          const T& vb = std::get<T>(lb[i].value);
          const T& vm = std::get<T>(lm[i].value);
          if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
            EXPECT_EQ(lm[i].agg, obs::StatAgg::kHistogram);
            for (std::size_t k = 0; k < vm.buckets.size(); ++k) {
              EXPECT_EQ(vm.buckets[k], va.buckets[k] + vb.buckets[k]);
            }
            EXPECT_EQ(vm.count, va.count + vb.count);
            EXPECT_EQ(vm.sum, va.sum + vb.sum);
            EXPECT_EQ(vm.min, std::min(va.min, vb.min));
            EXPECT_EQ(vm.max, std::max(va.max, vb.max));
          } else {
            switch (lm[i].agg) {
              case obs::StatAgg::kSum:
                EXPECT_EQ(vm, va + vb);
                break;
              case obs::StatAgg::kMax:
                EXPECT_EQ(vm, std::max(va, vb));
                break;
              case obs::StatAgg::kGauge:
                EXPECT_EQ(vm, gauges_add ? va + vb : va);
                break;
              case obs::StatAgg::kHistogram:
                ADD_FAILURE() << "scalar field marked kHistogram";
                break;
            }
          }
        },
        la[i].value);
  }
}

TEST(StatsSchema, TableCoversEveryAggregation) {
  std::vector<int> seen(4, 0);
  for (const test_util::StatLeaf& leaf :
       test_util::Leaves(service::ServiceStats{})) {
    ++seen[static_cast<std::size_t>(leaf.agg)];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(StatsSchema, PlusEqualsFollowsTheAggregationColumn) {
  service::ServiceStats a;
  service::ServiceStats b;
  test_util::FillDistinct(&a, 1);
  test_util::FillDistinct(&b, 2);
  service::ServiceStats merged = a;
  merged += b;
  ExpectMergedByAggregation(a, b, merged, /*gauges_add=*/true);
  // Max fields keep the larger side whichever side holds it.
  service::ServiceStats reversed = b;
  reversed += a;
  EXPECT_EQ(test_util::Rendered(reversed), test_util::Rendered(merged));
}

TEST(StatsSchema, RetiredShardAccumulationLeavesGaugesOut) {
  service::ServiceStats a;
  service::ServiceStats b;
  test_util::FillDistinct(&a, 3);
  test_util::FillDistinct(&b, 4);
  service::ServiceStats retired = a;
  obs::MergeStats(&retired, b, /*gauges=*/false);
  ExpectMergedByAggregation(a, b, retired, /*gauges_add=*/false);
}

// ---- Deterministic tie-breaking (regression for the merge contract) ------

TEST(ShardedService, TieBreakIsAscendingIdAcrossShards) {
  // Two structurally identical components → identical positive scores →
  // cross-shard ties, plus all-zero tails. The contract (descending
  // score, then ascending node/pair id) must hold globally.
  graph::DynamicDiGraph g(8);
  // Component A over {0, 2, 4}: 0 -> 2 and 0 -> 4 give nodes 2 and 4 the
  // common in-neighbor 0, so s(2,4) = C·s(0,0) > 0.
  ASSERT_TRUE(g.AddEdge(0, 2).ok());
  ASSERT_TRUE(g.AddEdge(0, 4).ok());
  // Component B over {1, 3, 5}: mirror image.
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  ASSERT_TRUE(g.AddEdge(1, 5).ok());
  // {6}, {7} are isolated singletons.
  auto single = MakeSingleService(g);
  ASSERT_TRUE(single.ok());
  ShardedServiceOptions options;
  options.num_shards = 4;
  auto sharded = ShardedSimRankService::Create(g, {}, options);
  ASSERT_TRUE(sharded.ok());

  // s(2,4) == s(3,5) exactly (identical arithmetic): the pair with the
  // smaller (a, b) must come first in both implementations.
  auto s24 = (*sharded)->Score(2, 4);
  auto s35 = (*sharded)->Score(3, 5);
  ASSERT_TRUE(s24.ok() && s35.ok());
  ASSERT_EQ(s24.value(), s35.value());
  ASSERT_GT(s24.value(), 0.0);
  std::vector<core::ScoredPair> pairs = (*sharded)->TopKPairs(4);
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ((pairs[0]), (core::ScoredPair{2, 4, s24.value()}));
  EXPECT_EQ((pairs[1]), (core::ScoredPair{3, 5, s35.value()}));
  // The zero-score tail is ascending (a, b): (0, 1) is the first zero pair.
  EXPECT_EQ((pairs[2]), (core::ScoredPair{0, 1, 0.0}));
  EXPECT_EQ((pairs[3]), (core::ScoredPair{0, 2, 0.0}));
  EXPECT_EQ(pairs, (*single)->TopKPairs(4));

  // TopKFor on an isolated node: every score is 0, so the result is the
  // ascending id order of all other nodes, identically in both.
  auto want = (*single)->TopKFor(6, 7);
  auto got = (*sharded)->TopKFor(6, 7);
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_EQ(got->size(), 7u);
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].b, static_cast<graph::NodeId>(i < 6 ? i : i + 1));
    EXPECT_EQ((*got)[i].score, 0.0);
  }
  EXPECT_EQ(want.value(), got.value());
}

// ---- Ambient-id-space invariance of the update kernels --------------------

TEST(ShardedInvariance, MultiChunkSupportsStayBitwiseIdentical) {
  // Large, dense components so the engine's chunk-parallel expansions run
  // over supports well past one chunk (kSparseExpandGrain = 128 entries).
  // The chunk geometry must be a function of the SUPPORT size only: if it
  // depended on the ambient node count, the shard-local run (n = 150)
  // would associate its FP sums differently from the full-graph run
  // (n = 300) and the scores would drift in the last bits.
  MultiComponentGraph mc = BuildMultiComponentGraph({150, 150}, {1200, 1150}, 41);
  const std::size_t n = mc.graph.num_nodes();
  // Same explicit batch_iterations everywhere: invariance, not
  // convergence, is under test — keep the solve cheap.
  constexpr int kBatchIterations = 12;
  auto full = core::DynamicSimRank::Create(
      mc.graph, {}, core::UpdateAlgorithm::kIncSR, kBatchIterations);
  ASSERT_TRUE(full.ok());
  ShardPlan plan = ShardPlan::Build(mc.graph, 2);
  ASSERT_EQ(plan.num_active_shards(), 2u);
  std::vector<core::DynamicSimRank> shards;
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    auto index = core::DynamicSimRank::Create(plan.BuildSubgraph(mc.graph, s),
                                              {}, core::UpdateAlgorithm::kIncSR,
                                              kBatchIterations);
    ASSERT_TRUE(index.ok());
    shards.push_back(std::move(index).value());
  }

  // Unit updates through both, then one coalesced multi-change group so
  // the generalized row-update path (z gather + dense eta expansion) is
  // exercised too.
  std::vector<graph::EdgeUpdate> stream = BuildMixedStream(mc, 6, 7);
  ASSERT_FALSE(stream.empty());
  for (const graph::EdgeUpdate& u : stream) {
    ASSERT_TRUE(full->ApplyUpdate(u).ok());
    const std::size_t s = plan.ShardOf(u.dst);
    ASSERT_TRUE(shards[s]
                    .ApplyUpdate({u.kind, plan.ToLocal(u.src),
                                  plan.ToLocal(u.dst)})
                    .ok());
  }
  // Coalesced group: several inserts onto one target node of component 0.
  const std::vector<graph::NodeId>& comp = mc.component_nodes[0];
  const graph::NodeId target = comp[0];
  std::vector<graph::EdgeUpdate> group;
  for (std::size_t i = comp.size() - 4; i < comp.size(); ++i) {
    if (!full->graph().HasEdge(comp[i], target)) {
      group.push_back({graph::UpdateKind::kInsert, comp[i], target});
    }
  }
  ASSERT_GE(group.size(), 2u);
  ASSERT_TRUE(full->ApplyBatchCoalesced(group).ok());
  std::vector<graph::EdgeUpdate> local_group = group;
  const std::size_t ts = plan.ShardOf(target);
  for (graph::EdgeUpdate& u : local_group) {
    u.src = plan.ToLocal(u.src);
    u.dst = plan.ToLocal(u.dst);
  }
  ASSERT_TRUE(shards[ts].ApplyBatchCoalesced(local_group).ok());

  // Every entry bitwise: within-shard equals the shard's local entry,
  // cross-shard is exactly 0.0 in the full matrix.
  for (std::size_t a = 0; a < n; ++a) {
    const auto ga = static_cast<graph::NodeId>(a);
    const std::size_t sa = plan.ShardOf(ga);
    for (std::size_t b = 0; b < n; ++b) {
      const auto gb = static_cast<graph::NodeId>(b);
      const double want = full->Score(ga, gb);
      if (plan.ShardOf(gb) == sa) {
        ASSERT_EQ(want, shards[sa].Score(plan.ToLocal(ga), plan.ToLocal(gb)))
            << "entry (" << a << "," << b << ")";
      } else {
        ASSERT_EQ(want, 0.0) << "cross entry (" << a << "," << b << ")";
      }
    }
  }
}

}  // namespace
}  // namespace incsr::shard

// Tests for the concurrent serving layer: ingest/flush semantics, epoch
// snapshot isolation, affected-area cache invalidation, backpressure, and
// the headline multi-threaded consistency property — N writers + M readers
// running concurrently must leave the service exactly equal (to 1e-9) to a
// fresh batch-built index on the final graph once Flush() returns. The
// whole suite is TSan-clean; CI runs it under -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "service/query_cache.h"
#include "service/simrank_service.h"
#include "service/topk_index.h"

namespace incsr::service {
namespace {

using core::DynamicSimRank;
using core::ScoredPair;
using graph::DynamicDiGraph;
using graph::EdgeUpdate;
using graph::UpdateKind;

simrank::SimRankOptions Converged(double damping = 0.6) {
  simrank::SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

DynamicDiGraph TestGraph(std::uint64_t seed = 3, std::size_t n = 16,
                         std::size_t m = 40) {
  auto stream = graph::ErdosRenyiGnm(n, m, seed);
  INCSR_CHECK(stream.ok(), "generator");
  return graph::MaterializeGraph(n, stream.value());
}

std::unique_ptr<SimRankService> MakeService(const DynamicDiGraph& graph,
                                            ServiceOptions options = {}) {
  auto index = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(index.ok(), "index build");
  auto service = SimRankService::Create(std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "service build");
  return std::move(service).value();
}

la::DenseMatrix OracleScores(const DynamicDiGraph& graph) {
  auto oracle = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(oracle.ok(), "oracle build");
  return oracle->scores().ToDense();
}

TEST(SimRankService, CreateRejectsBadOptions) {
  auto index = DynamicSimRank::Create(TestGraph(), Converged());
  ASSERT_TRUE(index.ok());
  ServiceOptions bad;
  bad.queue_capacity = 0;
  EXPECT_EQ(SimRankService::Create(std::move(index).value(), bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimRankService, CreateAndCreateReplicaRejectBadSparsityPolicies) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double epsilon;
    double max_density;
  } cases[] = {{nan, 0.5},  {inf, 0.5}, {-1e-9, 0.5}, {0.0, nan},
               {0.0, 0.0},  {0.0, 1.5}, {0.0, -0.5},  {0.0, inf}};
  for (const auto& c : cases) {
    ServiceOptions bad;
    bad.sparse.enabled = true;
    bad.sparse.epsilon = c.epsilon;
    bad.sparse.max_density = c.max_density;
    for (bool replica : {false, true}) {
      auto index = DynamicSimRank::Create(TestGraph(), Converged());
      ASSERT_TRUE(index.ok());
      auto service =
          replica ? SimRankService::CreateReplica(std::move(index).value(), bad)
                  : SimRankService::Create(std::move(index).value(), bad);
      EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument)
          << "epsilon " << c.epsilon << ", max_density " << c.max_density
          << ", replica " << replica;
    }
  }
  // The closed ends of both ranges are valid.
  ServiceOptions edge;
  edge.sparse.enabled = true;
  edge.sparse.epsilon = 0.0;
  edge.sparse.max_density = 1.0;
  auto index = DynamicSimRank::Create(TestGraph(), Converged());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(SimRankService::Create(std::move(index).value(), edge).ok());
}

TEST(SimRankService, ServesInitialEpochBeforeAnyUpdate) {
  DynamicDiGraph graph = TestGraph(7);
  auto service = MakeService(graph);
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->graph.num_edges(), graph.num_edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(graph)), 1e-11);

  auto score = service->Score(0, 1);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(score.value(), snap->scores(0, 1));
  EXPECT_EQ(service->Score(-1, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(service->TopKFor(99, 3).status().code(), StatusCode::kOutOfRange);
}

TEST(SimRankService, SerialIngestMatchesOracleAfterFlush) {
  DynamicDiGraph graph = TestGraph(11, 16, 40);
  auto service = MakeService(graph);

  Rng rng(5);
  auto inserts = graph::SampleInsertions(graph, 8, &rng);
  ASSERT_TRUE(inserts.ok());
  auto deletions = graph::SampleDeletions(graph, 4, &rng);
  ASSERT_TRUE(deletions.ok());
  std::vector<EdgeUpdate> updates = inserts.value();
  updates.insert(updates.end(), deletions->begin(), deletions->end());

  ASSERT_TRUE(service->SubmitBatch(updates).ok());
  ASSERT_TRUE(service->Flush().ok());

  DynamicDiGraph final_graph = graph;
  ASSERT_TRUE(graph::ApplyUpdates(updates, &final_graph).ok());
  auto snap = service->Snapshot();
  EXPECT_GE(snap->epoch, 1u);
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(final_graph)), 1e-9);

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, updates.size());
  EXPECT_EQ(stats.applied, updates.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// The acceptance-criteria test: N writer threads enqueue a random update
// stream while M reader threads query concurrently; after Flush() the
// served scores equal a fresh batch build on the final graph to 1e-9.
TEST(SimRankService, ConcurrentWritersAndReadersMatchOracle) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  DynamicDiGraph graph = TestGraph(21, 24, 60);
  ServiceOptions options;
  options.max_batch = 8;  // force several epochs
  auto service = MakeService(graph, options);

  // Insertions of distinct non-edges stay valid under every interleaving
  // of the writer threads (deletion validity would depend on order).
  Rng rng(17);
  auto sampled = graph::SampleInsertions(graph, 30, &rng);
  ASSERT_TRUE(sampled.ok());
  const std::vector<EdgeUpdate>& updates = sampled.value();

  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> reader_queries{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < updates.size(); i += kWriters) {
        Status s = service->Submit(updates[i]);
        INCSR_CHECK(s.ok(), "submit failed: %s", s.ToString().c_str());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng reader_rng(100 + static_cast<std::uint64_t>(r));
      // do-while: at least one query each, even if the writers finish
      // before this thread is first scheduled.
      do {
        const auto node = static_cast<graph::NodeId>(
            reader_rng.NextBounded(graph.num_nodes()));
        auto top = service->TopKFor(node, 5);
        INCSR_CHECK(top.ok(), "TopKFor failed");
        INCSR_CHECK(top->size() <= 5, "TopKFor overshot k");
        auto score = service->Score(node, 0);
        INCSR_CHECK(score.ok(), "Score failed");
        INCSR_CHECK(score.value() >= -1e-12 && score.value() <= 1.0 + 1e-12,
                    "score out of [0, 1]");
        auto pairs = service->TopKPairs(10);
        INCSR_CHECK(pairs.size() <= 10, "TopKPairs overshot k");
        reader_queries.fetch_add(1, std::memory_order_relaxed);
      } while (!writers_done.load(std::memory_order_acquire));
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_TRUE(service->Flush().ok());

  DynamicDiGraph final_graph = graph;
  for (const EdgeUpdate& u : updates) {
    ASSERT_TRUE(final_graph.AddEdge(u.src, u.dst).ok());
  }
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(final_graph)), 1e-9);

  // Post-flush queries see the final state, cache included.
  for (graph::NodeId q = 0; q < 4; ++q) {
    auto served = service->TopKFor(q, 5);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), core::TopKForOf(snap->scores, q, 5));
  }

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, updates.size());
  EXPECT_EQ(stats.applied, updates.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.epoch, 1u);
  EXPECT_GT(reader_queries.load(), 0u);
}

TEST(SimRankService, SelectiveCacheInvalidationAcrossComponents) {
  // Two disjoint 8-node components: SimRank never couples them, so an
  // update inside component A has an affected area wholly inside A and
  // must leave cached queries for component B warm.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 3);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 4);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  auto service = MakeService(graph);

  const graph::NodeId in_b = static_cast<graph::NodeId>(half) + 2;
  ASSERT_TRUE(service->TopKFor(in_b, 4).ok());  // warms the cache
  QueryCacheStats before = service->stats().cache;

  // An insert inside component A (nodes 0..7 only).
  EdgeUpdate update{UpdateKind::kInsert, 0, 5};
  if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
  ASSERT_TRUE(service->Submit(update).ok());
  ASSERT_TRUE(service->Flush().ok());

  auto again = service->TopKFor(in_b, 4);
  ASSERT_TRUE(again.ok());
  QueryCacheStats after = service->stats().cache;
  EXPECT_EQ(after.hits, before.hits + 1);  // entry survived the epoch bump
  // And the survivor is still exact for the new epoch.
  auto snap = service->Snapshot();
  EXPECT_EQ(again.value(), core::TopKForOf(snap->scores, in_b, 4));
}

TEST(SimRankService, PublishCostIsTouchedRowsNotN) {
  // Two disjoint 8-node components: an update inside component A has an
  // affected area wholly inside A, so the COW publish must copy at most
  // |A| rows — not the full n rows the old full-copy snapshot paid.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 5);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 6);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  auto service = MakeService(graph);
  EXPECT_EQ(service->stats().rows_published, 0u);  // epoch 0 copies nothing

  EdgeUpdate update{UpdateKind::kInsert, 0, 5};
  if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
  ASSERT_TRUE(service->Submit(update).ok());
  ASSERT_TRUE(service->Flush().ok());

  ServiceStats stats = service->stats();
  EXPECT_GT(stats.rows_published, 0u);
  EXPECT_LE(stats.rows_published, half);  // affected area stayed inside A
  EXPECT_EQ(stats.bytes_published,
            stats.rows_published * 2 * half * sizeof(double));
}

TEST(SimRankService, PinnedSnapshotStaysByteStableAcrossEpochs) {
  DynamicDiGraph graph = TestGraph(61, 16, 40);
  auto service = MakeService(graph);
  auto pinned = service->Snapshot();
  la::DenseMatrix pinned_bytes = pinned->scores.ToDense();

  Rng rng(19);
  auto inserts = graph::SampleInsertions(graph, 10, &rng);
  ASSERT_TRUE(inserts.ok());
  ASSERT_TRUE(service->SubmitBatch(inserts.value()).ok());
  ASSERT_TRUE(service->Flush().ok());

  // New epochs exist and the live snapshot moved on...
  auto latest = service->Snapshot();
  EXPECT_GT(latest->epoch, pinned->epoch);
  EXPECT_GT(la::MaxAbsDiff(latest->scores, pinned_bytes), 0.0);
  // ...but the pinned snapshot's bytes are exactly what they were.
  EXPECT_EQ(la::MaxAbsDiff(pinned->scores, pinned_bytes), 0.0);
}

// A row's tier and an index entry's depth follow only from writes: a
// tiered primary that serves a hot node set between single-update epochs
// ends in exactly the state of a replica that replays its batches and
// serves nothing. Then fallbacks past an entry's depth, followed by a
// publish, leave the entry as it was.
TEST(SimRankService, ReadsNeverMoveARow) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kCapacity = 4;
  for (double epsilon : {0.0, 1e-3}) {
    SCOPED_TRACE(epsilon);
    const DynamicDiGraph graph = TestGraph(23, kNodes, 48);
    ServiceOptions options;
    options.cache_capacity = 0;  // every read reaches the snapshot
    options.topk_index_capacity = kCapacity;
    options.sparse.enabled = true;
    options.sparse.epsilon = epsilon;
    // The replica is declared first so it outlives the primary, whose
    // applier calls into it.
    auto index = DynamicSimRank::Create(graph, Converged());
    ASSERT_TRUE(index.ok());
    auto made =
        SimRankService::CreateReplica(std::move(index).value(), options);
    ASSERT_TRUE(made.ok());
    std::unique_ptr<SimRankService> replica = std::move(made).value();
    auto primary = MakeService(graph, options);
    std::atomic<int> replay_failures{0};
    primary->SetAppliedBatchListener(
        [&](std::uint64_t seq, const std::vector<EdgeUpdate>& batch) {
          if (!replica->ApplyReplicated(seq, batch).ok()) ++replay_failures;
        });

    Rng rng(29);
    auto inserts = graph::SampleInsertions(graph, 64, &rng);
    ASSERT_TRUE(inserts.ok());
    for (const EdgeUpdate& update : inserts.value()) {
      for (graph::NodeId hot = 0; hot < 8; ++hot) {
        for (int read = 0; read < 4; ++read) {
          ASSERT_TRUE(primary->TopKFor(hot, kCapacity - 1).ok());
          ASSERT_TRUE(primary->Score(hot, (hot + 1 + read) % kNodes).ok());
        }
      }
      ASSERT_TRUE(primary->Submit(update).ok());
      ASSERT_TRUE(primary->Flush().ok());
    }
    EXPECT_EQ(replay_failures.load(), 0);

    auto served = primary->Snapshot();
    auto replayed = replica->Snapshot();
    ASSERT_EQ(served->epoch, replayed->epoch);
    for (std::size_t row = 0; row < kNodes; ++row) {
      EXPECT_EQ(served->scores.RowIsSparse(row),
                replayed->scores.RowIsSparse(row))
          << "row " << row;
    }
    const ServiceStats p = primary->stats();
    const ServiceStats r = replica->stats();
    EXPECT_GT(r.rows_sparse, 0u);  // the tiered path really ran
    EXPECT_EQ(p.rows_sparse, r.rows_sparse);
    EXPECT_EQ(p.rows_dense, r.rows_dense);
    EXPECT_EQ(p.bytes_saved, r.bytes_saved);
    EXPECT_EQ(p.sparse_max_error_bound, r.sparse_max_error_bound);
    EXPECT_TRUE(
        la::BitwiseEqual(served->scores.ToDense(), replayed->scores.ToDense()));

    // Fallbacks past the entry's depth do not deepen it: after them and a
    // publish (a duplicate insert validates to an empty batch, so no row
    // is written) the entry is the same kCapacity items.
    const graph::NodeId query = 5;
    std::vector<ScoredPair> before;
    ASSERT_TRUE(served->topk.Serve(query, kCapacity, &before));
    ASSERT_EQ(before.size(), kCapacity);
    const std::uint64_t fallbacks = p.topk_index_fallbacks;
    for (int read = 0; read < 8; ++read) {
      ASSERT_TRUE(primary->TopKFor(query, 2 * kCapacity).ok());
    }
    EXPECT_EQ(primary->stats().topk_index_fallbacks, fallbacks + 8);
    const EdgeUpdate duplicate = inserts.value().front();
    ASSERT_TRUE(primary->Submit(duplicate).ok());
    ASSERT_TRUE(primary->Flush().ok());
    auto after_publish = primary->Snapshot();
    ASSERT_GT(after_publish->epoch, served->epoch);
    std::vector<ScoredPair> after;
    ASSERT_TRUE(after_publish->topk.Serve(query, kCapacity, &after));
    EXPECT_EQ(after, before);
    EXPECT_FALSE(after_publish->topk.Serve(query, kCapacity + 1, &after));
  }
}

TEST(SimRankService, InvalidUpdatesAreSkippedNotFatal) {
  DynamicDiGraph graph = TestGraph(31);
  auto edges = graph.Edges();
  ASSERT_FALSE(edges.empty());
  auto service = MakeService(graph);

  std::vector<EdgeUpdate> updates = {
      {UpdateKind::kInsert, edges[0].src, edges[0].dst},  // duplicate
      {UpdateKind::kDelete, 0, 0},                        // absent (no loop)
      {UpdateKind::kInsert, 500, 1},                      // bad node id
  };
  ASSERT_FALSE(graph.HasEdge(0, 0));
  ASSERT_TRUE(service->SubmitBatch(updates).ok());
  ASSERT_TRUE(service->Flush().ok());

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.applied, 0u);
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(graph)), 1e-11);
}

TEST(SimRankService, RejectBackpressureSurfacesResourceExhausted) {
  DynamicDiGraph graph = TestGraph(41, 20, 50);
  ServiceOptions options;
  options.queue_capacity = 1;
  options.max_batch = 1;
  options.backpressure = BackpressurePolicy::kReject;
  auto service = MakeService(graph, options);

  Rng rng(9);
  auto inserts = graph::SampleInsertions(graph, 40, &rng);
  ASSERT_TRUE(inserts.ok());
  std::uint64_t rejected = 0;
  for (const EdgeUpdate& u : inserts.value()) {
    Status s = service->Submit(u);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  ASSERT_TRUE(service->Flush().ok());
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, inserts->size() - rejected);
  EXPECT_EQ(stats.applied + stats.failed, stats.submitted);
}

TEST(SimRankService, StopDrainsQueueAndRefusesLateSubmits) {
  DynamicDiGraph graph = TestGraph(51);
  auto service = MakeService(graph);
  Rng rng(13);
  auto inserts = graph::SampleInsertions(graph, 6, &rng);
  ASSERT_TRUE(inserts.ok());
  ASSERT_TRUE(service->SubmitBatch(inserts.value()).ok());
  service->Stop();

  EXPECT_EQ(service->Submit({UpdateKind::kInsert, 0, 1}).code(),
            StatusCode::kFailedPrecondition);
  // All pre-stop updates were drained and published.
  DynamicDiGraph final_graph = graph;
  ASSERT_TRUE(graph::ApplyUpdates(inserts.value(), &final_graph).ok());
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_TRUE(service->Flush().ok());  // no-op barrier after stop
}

// ---- Per-node top-k index ------------------------------------------------

std::unique_ptr<SimRankService> MakeServiceThreads(const DynamicDiGraph& graph,
                                                   ServiceOptions options,
                                                   int num_threads) {
  simrank::SimRankOptions sr = Converged();
  sr.num_threads = num_threads;
  auto index = DynamicSimRank::Create(graph, sr);
  INCSR_CHECK(index.ok(), "index build");
  auto service = SimRankService::Create(std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "service build");
  return std::move(service).value();
}

// Interleaved mixed churn stream: deletions of existing edges, insertions
// of non-edges — disjoint sets, so valid in any batch decomposition.
std::vector<EdgeUpdate> MixedStream(const DynamicDiGraph& graph,
                                    std::size_t deletions,
                                    std::size_t insertions,
                                    std::uint64_t seed) {
  Rng rng(seed);
  auto del = graph::SampleDeletions(graph, deletions, &rng);
  auto ins = graph::SampleInsertions(graph, insertions, &rng);
  INCSR_CHECK(del.ok() && ins.ok(), "sampling");
  std::vector<EdgeUpdate> mixed;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < del->size() || b < ins->size()) {
    if (a < del->size()) mixed.push_back((*del)[a++]);
    if (b < ins->size()) mixed.push_back((*ins)[b++]);
  }
  return mixed;
}

// The tentpole acceptance property: a TopKFor answered from the per-node
// index is BITWISE identical to TopKForOf on the same snapshot, across a
// mixed insert/delete churn stream, cache on/off, update-kernel threads
// 1 and 4, and k spanning the index-served (k <= capacity) and underfull
// fallback (k > capacity) paths — and every cache miss is accounted to
// exactly one of the two counters. Runs in the TSan CI job with the rest
// of this suite.
TEST(TopKIndexService, IndexVsOracleAcrossChurnCacheAndThreads) {
  constexpr std::size_t kIndexCapacity = 6;
  DynamicDiGraph graph = TestGraph(71, 20, 50);
  const std::size_t n = graph.num_nodes();
  std::vector<EdgeUpdate> stream = MixedStream(graph, 10, 14, 23);
  for (int threads : {1, 4}) {
    for (std::size_t cache_capacity : {std::size_t{0}, std::size_t{64}}) {
      ServiceOptions options;
      options.max_batch = 4;  // several epochs per run
      options.cache_capacity = cache_capacity;
      options.topk_index_capacity = kIndexCapacity;
      auto service = MakeServiceThreads(graph, options, threads);

      const std::size_t kk[] = {0, 1, 3, kIndexCapacity, kIndexCapacity + 1,
                                n - 1, n, n + 3};
      // Query between every few updates so results span many epochs.
      for (std::size_t next = 0; next <= stream.size(); next += 5) {
        for (std::size_t i = next; i < std::min(next + 5, stream.size());
             ++i) {
          ASSERT_TRUE(service->Submit(stream[i]).ok());
        }
        ASSERT_TRUE(service->Flush().ok());
        auto snap = service->Snapshot();
        for (std::size_t q = 0; q < n; ++q) {
          for (std::size_t k : kk) {
            auto got = service->TopKFor(static_cast<graph::NodeId>(q), k);
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got.value(),
                      core::TopKForOf(snap->scores,
                                      static_cast<graph::NodeId>(q), k))
                << "q=" << q << " k=" << k << " threads=" << threads
                << " cache=" << cache_capacity;
          }
        }
      }

      ServiceStats stats = service->stats();
      EXPECT_GT(stats.topk_index_served, 0u);
      EXPECT_GT(stats.topk_index_fallbacks, 0u);  // k > capacity occurred
      // Every TopKFor miss was answered by exactly one of the two paths.
      EXPECT_EQ(stats.cache.misses,
                stats.topk_index_served + stats.topk_index_fallbacks);
      if (cache_capacity > 0) {
        EXPECT_GT(stats.cache.hits, 0u);
      }
      // Initial build re-ranked all n rows; every epoch after re-ranked
      // exactly the rows the batch COW'd — nothing more.
      EXPECT_EQ(stats.topk_index_rows_reranked, n + stats.rows_published);
    }
  }
}

TEST(TopKIndexService, UnderfullEntriesFallBackToRowScan) {
  DynamicDiGraph graph = TestGraph(91, 16, 40);
  ServiceOptions options;
  options.cache_capacity = 0;  // every query is a miss
  options.topk_index_capacity = 3;
  auto service = MakeService(graph, options);

  auto served = service->TopKFor(2, 3);  // k == capacity: index answers
  ASSERT_TRUE(served.ok());
  auto fallback = service->TopKFor(2, 10);  // k > capacity: row scan
  ASSERT_TRUE(fallback.ok());
  auto snap = service->Snapshot();
  EXPECT_EQ(served.value(), core::TopKForOf(snap->scores, 2, 3));
  EXPECT_EQ(fallback.value(), core::TopKForOf(snap->scores, 2, 10));

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_index_served, 1u);
  EXPECT_EQ(stats.topk_index_fallbacks, 1u);
}

TEST(TopKIndexService, PairMergeStaysExactAcrossChurnAndCounts) {
  DynamicDiGraph graph = TestGraph(101, 18, 44);
  const std::size_t n = graph.num_nodes();
  std::vector<EdgeUpdate> stream = MixedStream(graph, 8, 10, 53);
  ServiceOptions options;
  options.cache_capacity = 0;     // every pair query is a miss
  options.topk_index_capacity = n;  // complete entries: merge always exact
  auto service = MakeService(graph, options);

  std::uint64_t queries = 0;
  for (std::size_t next = 0; next <= stream.size(); next += 6) {
    for (std::size_t i = next; i < std::min(next + 6, stream.size()); ++i) {
      ASSERT_TRUE(service->Submit(stream[i]).ok());
    }
    ASSERT_TRUE(service->Flush().ok());
    auto snap = service->Snapshot();
    for (std::size_t k : {std::size_t{1}, std::size_t{7}, n, n * n}) {
      ASSERT_EQ(service->TopKPairs(k), core::TopKPairsOf(snap->scores, k))
          << "k=" << k << " after " << next << " updates";
      ++queries;
    }
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_pairs_served, queries);
  EXPECT_EQ(stats.topk_pairs_fallbacks, 0u);
}

TEST(TopKIndexService, DeepPairQueriesFallBackPastBoundedEntries) {
  DynamicDiGraph graph = TestGraph(91, 16, 40);
  const std::size_t n = graph.num_nodes();
  ServiceOptions options;
  options.cache_capacity = 0;
  options.topk_index_capacity = 2;  // incomplete entries at n = 16
  auto service = MakeService(graph, options);
  auto snap = service->Snapshot();
  // k past the total pair count can never be proven by bounded entries.
  EXPECT_EQ(service->TopKPairs(n * n), core::TopKPairsOf(snap->scores, n * n));
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_pairs_fallbacks, 1u);
  EXPECT_EQ(stats.topk_pairs_served, 0u);
}

TEST(TopKIndexService, RerankCostIsTouchedRowsNotN) {
  // Two disjoint 8-node components (as in PublishCostIsTouchedRowsNotN):
  // an update inside component A must re-rank at most |A| index entries —
  // and in fact exactly the rows the batch copy-on-wrote. With the default
  // capacity every entry is complete (n = 16), so each re-rank is a patch;
  // at capacity 4 every re-rank is a rescan.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 5);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 6);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  for (std::size_t capacity : {ServiceOptions{}.topk_index_capacity,
                               std::size_t{4}}) {
    SCOPED_TRACE(capacity);
    ServiceOptions options;
    options.topk_index_capacity = capacity;
    auto service = MakeService(graph, options);
    EXPECT_EQ(service->stats().topk_index_rows_reranked, 2 * half);  // build
    EXPECT_EQ(service->stats().topk_index_rows_patched, 0u);  // by scan

    EdgeUpdate update{UpdateKind::kInsert, 0, 5};
    if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
    ASSERT_TRUE(service->Submit(update).ok());
    ASSERT_TRUE(service->Flush().ok());

    ServiceStats stats = service->stats();
    EXPECT_EQ(stats.topk_index_rows_reranked,
              2 * half + stats.rows_published);
    EXPECT_LE(stats.topk_index_rows_reranked, 3 * half);  // stayed inside A
    const bool complete = capacity + 1 >= 2 * half;
    EXPECT_EQ(stats.topk_index_rows_patched,
              complete ? stats.rows_published : 0u);
  }
}

// ---- TopKFor/TopKPairs edge cases (k = 0, k >= n, single node,
// isolated node) pinned against the oracle, index on and off ---------------

TEST(SimRankService, TopKEdgeCasesMatchOracleIndexOnAndOff) {
  DynamicDiGraph graph = TestGraph(81, 12, 30);
  const std::size_t n = graph.num_nodes();
  for (std::size_t index_capacity : {std::size_t{0}, std::size_t{4096}}) {
    ServiceOptions options;
    options.topk_index_capacity = index_capacity;
    auto service = MakeService(graph, options);
    auto snap = service->Snapshot();

    auto zero = service->TopKFor(3, 0);  // k == 0: empty, not an error
    ASSERT_TRUE(zero.ok());
    EXPECT_TRUE(zero->empty());

    for (std::size_t k : {n - 1, n, n + 100}) {  // k >= n: all n-1 others
      auto all = service->TopKFor(3, k);
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(all->size(), n - 1);
      EXPECT_EQ(all.value(), core::TopKForOf(snap->scores, 3, k));
    }

    EXPECT_TRUE(service->TopKPairs(0).empty());
    EXPECT_EQ(service->TopKPairs(n * n).size(), n * (n - 1) / 2);
  }
}

TEST(SimRankService, SingleNodeGraphServesEmptyTopK) {
  DynamicDiGraph graph(1);
  auto service = MakeService(graph);
  auto top = service->TopKFor(0, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
  EXPECT_TRUE(service->TopKPairs(5).empty());
  auto self = service->Score(0, 0);
  ASSERT_TRUE(self.ok());
  EXPECT_GT(self.value(), 0.0);  // s(v, v) = 1 - C
  EXPECT_EQ(service->TopKFor(1, 5).status().code(), StatusCode::kOutOfRange);
}

TEST(SimRankService, IsolatedNodeQueryIsAscendingZeroTail) {
  // Node n-1 is isolated: its row is exactly 0 off-diagonal, so TopKFor
  // must return the other nodes in ascending id order with score 0.0 —
  // identically from the index and from the row scan.
  auto stream = graph::ErdosRenyiGnm(6, 14, 9);
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph graph(7);
  for (const auto& e : stream.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (std::size_t index_capacity : {std::size_t{0}, std::size_t{4096}}) {
    ServiceOptions options;
    options.topk_index_capacity = index_capacity;
    auto service = MakeService(graph, options);
    auto top = service->TopKFor(6, 10);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 6u);
    for (std::size_t i = 0; i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].b, static_cast<graph::NodeId>(i));
      EXPECT_EQ((*top)[i].score, 0.0);
    }
  }
}

// ---- ServiceStats aggregation (regression: epoch must not sum) -----------

TEST(ServiceStats, AggregationTakesMaxEpochAndSumsCounters) {
  ServiceStats a;
  a.epoch = 7;
  a.applied = 3;
  a.topk_index_served = 2;
  ServiceStats b;
  b.epoch = 4;
  b.applied = 5;
  b.topk_index_fallbacks = 1;
  a += b;
  EXPECT_EQ(a.epoch, 7u);  // max, not 11
  EXPECT_EQ(a.applied, 8u);
  EXPECT_EQ(a.topk_index_served, 2u);
  EXPECT_EQ(a.topk_index_fallbacks, 1u);
  ServiceStats c;
  c.epoch = 9;
  a += c;
  EXPECT_EQ(a.epoch, 9u);
}

// ---- TopKIndex unit tests ------------------------------------------------

la::ScoreStore StoreFromRows(std::vector<std::vector<double>> rows) {
  la::DenseMatrix dense(rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows.size(); ++j) dense(i, j) = rows[i][j];
  }
  return la::ScoreStore(std::move(dense));
}

TEST(TopKIndexUnit, DisabledIndexNeverServes) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.5}, {0.5, 1.0}});
  TopKIndex index(0);
  index.RebuildAll(store);
  EXPECT_EQ(index.rows_reranked(), 0u);
  TopKIndex::View view = index.Publish();
  EXPECT_TRUE(view.empty());
  std::vector<ScoredPair> out;
  EXPECT_FALSE(view.Serve(0, 1, &out));
}

TEST(TopKIndexUnit, CompleteEntryServesAnyKUnderfullRefuses) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.3, 0.7, 0.1},
                                        {0.3, 1.0, 0.2, 0.2},
                                        {0.7, 0.2, 1.0, 0.4},
                                        {0.1, 0.2, 0.4, 1.0}});
  TopKIndex full(8);  // capacity >= n-1: entries complete
  full.RebuildAll(store);
  TopKIndex::View view = full.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.Serve(0, 100, &out));  // k >= n served from a complete entry
  EXPECT_EQ(out, core::TopKForOf(store, 0, 100));
  ASSERT_TRUE(view.Serve(0, 0, &out));
  EXPECT_TRUE(out.empty());

  TopKIndex bounded(2);  // capacity < n-1: k past the entry must refuse
  bounded.RebuildAll(store);
  TopKIndex::View small = bounded.Publish();
  ASSERT_TRUE(small.Serve(2, 2, &out));
  EXPECT_EQ(out, core::TopKForOf(store, 2, 2));
  EXPECT_FALSE(small.Serve(2, 3, &out));  // underfull
}

TEST(TopKIndexUnit, RebuildRowsPatchesOnlyNamedRows) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.3, 0.2},
                                        {0.3, 1.0, 0.6},
                                        {0.2, 0.6, 1.0}});
  TopKIndex index(4);
  index.RebuildAll(store);
  store.Publish();  // start COW tracking
  // Rewrite row 1 (and symmetric column entries in rows 0/2 would follow
  // in real use; here only row 1 is re-ranked on purpose).
  la::RowWriter row1;
  store.BeginWriteRow(1, &row1);
  row1.Dense()[0] = 0.9;
  store.CommitWriteRow(&row1);
  const std::vector<std::int32_t> touched = {1};
  index.RebuildRows(store, touched);
  TopKIndex::View view = index.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.Serve(1, 2, &out));
  EXPECT_EQ(out, core::TopKForOf(store, 1, 2));  // sees the new bytes
  // Row 0's entry was NOT rebuilt: it still serves the old ranking.
  ASSERT_TRUE(view.Serve(0, 2, &out));
  EXPECT_EQ(out[0].score, 0.3);
}

bool SameBits(std::span<const ScoredPair> x,
              const std::vector<ScoredPair>& y) {
  if (x.size() != y.size()) return false;
  for (std::size_t t = 0; t < x.size(); ++t) {
    if (x[t].a != y[t].a || x[t].b != y[t].b ||
        std::bit_cast<std::uint64_t>(x[t].score) !=
            std::bit_cast<std::uint64_t>(y[t].score)) {
      return false;
    }
  }
  return true;
}

// A score drawn to make ties and signed zeros common.
double TieProneScore(Rng* rng) {
  switch (rng->NextBounded(6)) {
    case 0: return 0.25;
    case 1: return 0.0;
    case 2: return -0.0;
    case 3: return -rng->NextDouble();
    default: return rng->NextDouble();
  }
}

// Rewrites row i with exactly `values`: the write spills to dense, and a
// sparse-tier row is demoted back at ε = 0, which keeps every bit.
void OverwriteRow(la::ScoreStore* store, std::size_t i,
                  const std::vector<double>& values, bool sparse) {
  la::RowWriter writer;
  store->BeginWriteRow(i, &writer);
  std::copy(values.begin(), values.end(), writer.Dense());
  store->CommitWriteRow(&writer);
  if (sparse) {
    EXPECT_TRUE(store->SparsifyRow(i, {}));
  }
}

TEST(TopKIndexUnit, PatchedCompleteEntriesMatchTheRowScan) {
  // Complete entries are patched by their changed columns; bounded ones
  // are rescanned. Both must stay bitwise the row scan, under deltas that
  // change nothing, one column, every column, make new ties, flip zero
  // signs, or touch only the diagonal.
  Rng rng(424242);
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{64},
                        std::size_t{300}}) {
    for (bool sparse : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " sparse " << sparse);
      std::vector<std::vector<double>> rows(n, std::vector<double>(n));
      for (auto& row : rows) {
        for (double& v : row) v = TieProneScore(&rng);
      }
      la::ScoreStore store = StoreFromRows(rows);
      store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
      if (sparse) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(store.SparsifyRow(i, {}));
        }
      }
      TopKIndex complete(n - 1);
      TopKIndex bounded(n > 2 ? n - 2 : 0);  // n = 2 has no bounded depth
      complete.RebuildAll(store);
      bounded.RebuildAll(store);
      EXPECT_EQ(complete.rows_patched(), 0u);  // a build is a scan
      store.Publish();

      std::uint64_t touched_total = 0;
      for (int round = 0; round < 12; ++round) {
        std::vector<std::int32_t> touched;
        const std::size_t count =
            1 + rng.NextBounded(std::min<std::size_t>(n, 8));
        for (std::size_t t = 0; t < count; ++t) {
          const std::size_t i = rng.NextBounded(n);
          std::vector<double>& row = rows[i];
          switch ((round + t) % 6) {
            case 0:  // bytes unchanged
              break;
            case 1:
              row[rng.NextBounded(n)] = TieProneScore(&rng);
              break;
            case 2:
              for (double& v : row) v = TieProneScore(&rng);
              break;
            case 3: {  // a new tie: one column copies another's score
              const std::size_t from = rng.NextBounded(n);
              for (int c = 0; c < 3; ++c) row[rng.NextBounded(n)] = row[from];
              break;
            }
            case 4:  // every zero flips its sign
              for (double& v : row) {
                if (v == 0.0) v = std::signbit(v) ? 0.0 : -0.0;
              }
              break;
            default:
              row[i] = TieProneScore(&rng);
              break;
          }
          OverwriteRow(&store, i, row, sparse);
          touched.push_back(static_cast<std::int32_t>(i));
        }
        touched.push_back(touched.front());  // duplicates are harmless
        touched_total += touched.size();
        complete.RebuildRows(store, touched);
        bounded.RebuildRows(store, touched);
        store.Publish();
        for (std::size_t i = 0; i < n; ++i) {
          const auto q = static_cast<graph::NodeId>(i);
          ASSERT_TRUE(SameBits(complete.EntryItems(i),
                               core::TopKForOf(store, q, n - 1)))
              << "complete row " << i << " round " << round;
          ASSERT_TRUE(SameBits(bounded.EntryItems(i),
                               core::TopKForOf(store, q, bounded.capacity())))
              << "bounded row " << i << " round " << round;
        }
      }
      EXPECT_EQ(complete.rows_patched(), touched_total);
      EXPECT_EQ(complete.rows_reranked(), n + touched_total);
      EXPECT_EQ(bounded.rows_patched(), 0u);
      if (bounded.enabled()) {
        EXPECT_EQ(bounded.rows_reranked(), n + touched_total);
      }
    }
  }
}

TEST(TopKIndexUnit, ParallelRebuildAllMatchesTheRowScan) {
  // RebuildAll ranks rows on the shared scheduler (INCSR_THREADS; CI runs
  // this suite at 1 and 4): every entry must still be bitwise the row
  // scan, over dense rows and sparse-tier rows alike.
  graph::CitationModelParams params;
  params.num_nodes = 300;
  params.seed = 11;
  auto stream = graph::PreferentialCitation(params);
  ASSERT_TRUE(stream.ok());
  auto index = DynamicSimRank::Create(
      graph::MaterializeGraph(params.num_nodes, stream.value()), Converged());
  ASSERT_TRUE(index.ok());
  la::ScoreStore store(index->scores().ToDense());
  store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
  for (std::size_t i = 0; i < store.rows(); i += 3) {
    ASSERT_TRUE(store.SparsifyRow(i, {}));
  }
  const std::size_t n = store.rows();
  for (std::size_t capacity : {n - 1, std::size_t{16}}) {
    TopKIndex topk(capacity);
    topk.RebuildAll(store);
    EXPECT_EQ(topk.rows_reranked(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameBits(topk.EntryItems(i),
                           core::TopKForOf(store, static_cast<graph::NodeId>(i),
                                           capacity)))
          << "capacity " << capacity << " row " << i;
    }
  }
}

TEST(TopKIndexUnit, ServePairsCompleteEntriesMatchPairScanExactly) {
  // Deliberately NOT bitwise symmetric: s(a,b) and s(b,a) differ by ~an
  // ulp, exactly like incrementally maintained S. The merge must read
  // row min(a,b)'s copy — the same bytes TopKPairsOf reads — or scores
  // (and hence tie-breaks) drift off the scan's.
  const double kJitter = 1e-15;
  la::ScoreStore store = StoreFromRows({
      {1.0, 0.8, 0.3, 0.5},
      {0.8 + kJitter, 1.0, 0.5, 0.2},
      {0.3 - kJitter, 0.5 + kJitter, 1.0, 0.4},
      {0.5 - kJitter, 0.2, 0.4 + kJitter, 1.0}});
  TopKIndex index(8);  // capacity >= n-1: every entry complete
  index.RebuildAll(store);
  TopKIndex::View view = index.Publish();
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{6}, std::size_t{100}}) {
    std::vector<ScoredPair> out;
    ASSERT_TRUE(view.ServePairs(k, &out)) << "k=" << k;
    EXPECT_EQ(out, core::TopKPairsOf(store, k)) << "k=" << k;
  }
}

TEST(TopKIndexUnit, ServePairsBoundedEntriesServeHeadRefusePastBound) {
  // n = 5, capacity 2: entries are incomplete, so only pairs strictly
  // above the worst stored-tail score (0.7, row 1's last item) are
  // provably exact. k = 1 rides the merge; k = 2 would emit the 0.7
  // pair, which an unstored pair could tie — refuse and fall back.
  la::ScoreStore store = StoreFromRows({
      {1.0, 0.9, 0.1, 0.1, 0.1},
      {0.9, 1.0, 0.7, 0.1, 0.1},
      {0.1, 0.7, 1.0, 0.6, 0.1},
      {0.1, 0.1, 0.6, 1.0, 0.1},
      {0.1, 0.1, 0.1, 0.1, 1.0}});
  TopKIndex index(2);
  index.RebuildAll(store);
  TopKIndex::View view = index.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.ServePairs(1, &out));
  EXPECT_EQ(out, core::TopKPairsOf(store, 1));
  EXPECT_FALSE(view.ServePairs(2, &out));
  EXPECT_TRUE(out.empty());

  TopKIndex disabled(0);
  disabled.RebuildAll(store);
  EXPECT_FALSE(disabled.Publish().ServePairs(1, &out));
}

// ---- TopKQueryCache unit tests -------------------------------------------

std::vector<ScoredPair> FakeResults(graph::NodeId node, std::size_t k) {
  std::vector<ScoredPair> results;
  for (std::size_t i = 0; i < k; ++i) {
    results.push_back({node, static_cast<graph::NodeId>(i + 1),
                       1.0 / static_cast<double>(i + 1)});
  }
  return results;
}

TEST(TopKQueryCache, PrefixHitsAndLargerKMisses) {
  TopKQueryCache cache(4);
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 3, &out));
  cache.Insert(1, 5, 0, FakeResults(1, 5));
  ASSERT_TRUE(cache.Lookup(1, 3, &out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out, FakeResults(1, 3));
  EXPECT_FALSE(cache.Lookup(1, 8, &out));  // cached k too small
}

TEST(TopKQueryCache, SelectiveInvalidationEvictsOnlyTouchedNodes) {
  TopKQueryCache cache(8);
  cache.Insert(1, 2, 0, FakeResults(1, 2));
  cache.Insert(2, 2, 0, FakeResults(2, 2));
  cache.Insert(3, 2, 0, FakeResults(3, 2));
  std::vector<std::int32_t> touched = {2, 7};
  cache.OnPublish(1, touched);
  std::vector<ScoredPair> out;
  EXPECT_TRUE(cache.Lookup(1, 2, &out));
  EXPECT_FALSE(cache.Lookup(2, 2, &out));
  EXPECT_TRUE(cache.Lookup(3, 2, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(TopKQueryCache, StaleEpochInsertIsDropped) {
  TopKQueryCache cache(4);
  cache.OnPublish(2, {});
  cache.Insert(1, 2, 1, FakeResults(1, 2));  // computed at old epoch 1
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  EXPECT_EQ(cache.stats().stale_inserts, 1u);
  cache.Insert(1, 2, 2, FakeResults(1, 2));  // current epoch: admitted
  EXPECT_TRUE(cache.Lookup(1, 2, &out));
}

TEST(TopKQueryCache, LruEvictionAtCapacity) {
  TopKQueryCache cache(2);
  cache.Insert(1, 1, 0, FakeResults(1, 1));
  cache.Insert(2, 1, 0, FakeResults(2, 1));
  std::vector<ScoredPair> out;
  ASSERT_TRUE(cache.Lookup(1, 1, &out));  // 1 becomes most recent
  cache.Insert(3, 1, 0, FakeResults(3, 1));
  EXPECT_TRUE(cache.Lookup(1, 1, &out));
  EXPECT_FALSE(cache.Lookup(2, 1, &out));  // LRU victim
  EXPECT_TRUE(cache.Lookup(3, 1, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(TopKQueryCache, ZeroCapacityDisablesCaching) {
  TopKQueryCache cache(0);
  cache.Insert(1, 2, 0, FakeResults(1, 2));
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  cache.InsertPairs(2, 0, FakeResults(0, 2));
  EXPECT_FALSE(cache.LookupPairs(2, &out));
}

TEST(TopKQueryCache, PairsMemoInvalidatedByAnyTouch) {
  TopKQueryCache cache(4);
  cache.InsertPairs(3, 0, FakeResults(0, 3));
  std::vector<ScoredPair> out;
  ASSERT_TRUE(cache.LookupPairs(2, &out));
  EXPECT_EQ(out.size(), 2u);
  std::vector<std::int32_t> touched = {5};
  cache.OnPublish(1, touched);
  EXPECT_FALSE(cache.LookupPairs(2, &out));
}

}  // namespace
}  // namespace incsr::service

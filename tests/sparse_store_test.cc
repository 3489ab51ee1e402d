// Property suite for the tiered sparse row backings (docs/score_store.md):
//   - Row-level drop rule: entries >= eps and protected keep_cols survive a
//     sparsification, exact +0.0 entries drop losslessly, lossy drops are
//     counted and bounded, the density gate refuses rows that would not
//     compress, and eps = 0 is bitwise.
//   - Serving-layer equivalence: dense-store and tiered-store services fed
//     the same stream agree bitwise at eps = 0 and within the store's own
//     recorded error bound at eps > 0 — per UpdateAlgorithm, and through
//     the sharded facade at shard counts 1 and 4.
//   - Concurrency: a pinned view's bytes survive tier migration
//     (SparsifyRow demotions, merges spilled by the density gate) and
//     dense copy-on-write racing reader checksums. TSan-clean; CI runs
//     this suite under -fsanitize=thread and -fsanitize=address.
//   - CreateIsolated: the sparse-direct (1-C)I entry point matches the
//     dense Create on an edgeless graph, before and after inserts.
//   - Stored-entry read: ForEachStored visits exactly the entries that are
//     not +0.0, and TopKForOf (store, View, and a TopKIndex kept up under
//     churn) and TopKPairsOf are bitwise the dense scans of ToDense().
//   - Graph COW: snapshots and copies stay byte-stable across mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "service/simrank_service.h"
#include "service/topk_index.h"
#include "shard/sharded_service.h"
#include "simrank/options.h"

namespace incsr {
namespace {

la::DenseMatrix TestMatrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed = 7) {
  Rng rng(seed);
  la::DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = m.RowPtr(i);
    for (std::size_t j = 0; j < cols; ++j) row[j] = rng.NextDouble();
  }
  return m;
}

// Overwrites entry (i, j) through a write session that spills to dense
// (RowWriter::Dense), so a sparse row commits as a dense block.
void SetEntryDense(la::ScoreStore* store, std::size_t i, std::size_t j,
                   double v) {
  la::RowWriter writer;
  store->BeginWriteRow(i, &writer);
  writer.Dense()[j] = v;
  store->CommitWriteRow(&writer);
}

// ---- Row-level drop rule --------------------------------------------------

TEST(SparseRowBlock, DropRuleKeepsLargeAndProtectedEntries) {
  const std::size_t n = 8;
  la::DenseMatrix m(n, n);  // zero-initialized
  // Row 0: a large entry, a protected small entry, an unprotected small
  // entry, and exact zeros everywhere else.
  m.RowPtr(0)[1] = 0.5;
  m.RowPtr(0)[2] = 0.01;  // protected by keep_cols below
  m.RowPtr(0)[3] = 0.02;  // lossy drop: |v| < eps
  la::ScoreStore store(std::move(m));
  store.set_sparsity({.epsilon = 0.1, .max_density = 1.0,
                      .error_amplification = 2.5});

  const std::int32_t keep[] = {2};
  std::size_t dropped = 0;
  ASSERT_TRUE(store.SparsifyRow(0, keep, &dropped));
  EXPECT_TRUE(store.RowIsSparse(0));
  EXPECT_EQ(dropped, 1u);  // only the 0.02: zeros are lossless drops
  EXPECT_EQ(store(0, 1), 0.5);
  EXPECT_EQ(store(0, 2), 0.01);  // survives despite |v| < eps
  EXPECT_EQ(store(0, 3), 0.0);   // dropped
  EXPECT_EQ(store(0, 0), 0.0);
  EXPECT_EQ(store.stats().eps_drops, 1u);
  EXPECT_EQ(store.stats().rows_sparse, 1u);
  // Bound: max dropped magnitude times the configured amplification.
  EXPECT_DOUBLE_EQ(store.stats().max_error_bound, 0.02 * 2.5);
  EXPECT_GT(store.bytes_saved(), 0u);

  // A write that spills the row back to dense keeps the drops baked in
  // (the bound persists — the information is gone).
  SetEntryDense(&store, 0, 4, 0.25);
  EXPECT_FALSE(store.RowIsSparse(0));
  EXPECT_EQ(store(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(store.stats().max_error_bound, 0.02 * 2.5);
}

TEST(SparseRowBlock, EpsilonZeroSparsificationIsBitwise) {
  const std::size_t n = 12;
  la::DenseMatrix dense = TestMatrix(n, n, 3);
  // Plant exact zeros so there is something to elide losslessly.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; j += 3) dense.RowPtr(i)[j] = 0.0;
  }
  la::ScoreStore store((la::DenseMatrix(dense)));
  store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.SparsifyRow(i, {}));
  }
  EXPECT_EQ(store.stats().rows_sparse, n);
  EXPECT_EQ(store.stats().eps_drops, 0u);
  EXPECT_EQ(store.stats().max_error_bound, 0.0);
  EXPECT_TRUE(la::BitwiseEqual(store.ToDense(), dense));
  // ReadRow gathers the identical bytes.
  la::Vector scratch;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = store.ReadRow(i, &scratch);
    for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(row[j], dense(i, j));
  }
}

TEST(SparseRowBlock, DensityGateRefusesIncompressibleRows) {
  la::ScoreStore store(TestMatrix(6, 6, 5));  // every entry in (0, 1)
  store.set_sparsity({.epsilon = 1e-6, .max_density = 0.5});
  EXPECT_FALSE(store.SparsifyRow(2, {}));  // nothing droppable: stays dense
  EXPECT_FALSE(store.RowIsSparse(2));
  EXPECT_EQ(store.stats().rows_sparse, 0u);
  // Re-sparsifying an already-sparse row is refused too.
  store.set_sparsity({.epsilon = 2.0, .max_density = 1.0});
  EXPECT_TRUE(store.SparsifyRow(2, {}));
  EXPECT_FALSE(store.SparsifyRow(2, {}));
}

TEST(SparseRowBlock, ScaledIdentityIsSparseDirect) {
  const std::size_t n = 64;
  la::ScoreStore store = la::ScoreStore::ScaledIdentity(n, 0.4);
  EXPECT_EQ(store.rows(), n);
  EXPECT_EQ(store.cols(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(store.RowIsSparse(i));
    EXPECT_EQ(store(i, i), 0.4);
    EXPECT_EQ(store(i, (i + 1) % n), 0.0);
  }
  // One stored entry per row: payload nowhere near the dense slab.
  EXPECT_LT(store.payload_bytes(), n * n * sizeof(double) / 4);
  // A write session that spills to dense keeps the content.
  SetEntryDense(&store, 5, 9, 1.25);
  EXPECT_FALSE(store.RowIsSparse(5));
  EXPECT_EQ(store(5, 5), 0.4);
  EXPECT_EQ(store(5, 9), 1.25);
}

TEST(SparseRowBlock, TierMovesLandInTouchedDeltaAndViewsStayStable) {
  const std::size_t n = 10;
  la::DenseMatrix dense = TestMatrix(n, n, 11);
  dense.RowPtr(4)[0] = 0.0;  // give row 4 something to elide
  la::ScoreStore store((la::DenseMatrix(dense)));
  store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
  la::ScoreStore::View view = store.Publish();

  ASSERT_TRUE(store.SparsifyRow(4, {}));
  // The shared->unshared transition recorded the row for the serving
  // layer's re-rank/invalidation pass.
  ASSERT_EQ(store.touched_rows().size(), 1u);
  EXPECT_EQ(store.touched_rows()[0], 4);
  // The pinned view still reads the dense pre-demotion block, bitwise.
  EXPECT_FALSE(view.RowIsSparse(4));
  EXPECT_TRUE(la::BitwiseEqual(view.ToDense(), dense));

  la::ScoreStore::View second = store.Publish();
  EXPECT_TRUE(second.RowIsSparse(4));
  SetEntryDense(&store, 4, 0, 0.0);  // spills to dense, same content
  EXPECT_FALSE(store.RowIsSparse(4));
  ASSERT_EQ(store.touched_rows().size(), 1u);
  EXPECT_EQ(store.touched_rows()[0], 4);
  EXPECT_TRUE(second.RowIsSparse(4));  // the pinned sparse view is stable
  EXPECT_TRUE(la::BitwiseEqual(second.ToDense(), dense));
}

// ---- Serving-layer equivalence --------------------------------------------

std::vector<graph::EdgeUpdate> InsertStream(const graph::DynamicDiGraph& graph,
                                            std::size_t count,
                                            std::uint64_t seed) {
  Rng rng(seed);
  auto ins = graph::SampleInsertions(graph, count, &rng);
  INCSR_CHECK(ins.ok(), "sampling failed");
  return std::move(ins).value();
}

service::ServiceOptions TieredOptions(double epsilon) {
  service::ServiceOptions options;
  options.max_batch = 8;
  options.sparse.enabled = true;
  options.sparse.epsilon = epsilon;
  options.sparse.max_density = 1.0;  // compress whenever allowed
  return options;
}

// Runs the same stream through a dense-store service and a tiered-store
// service; returns (dense final S, sparse final S, sparse stats).
struct EquivalenceRun {
  la::DenseMatrix dense_s;
  la::DenseMatrix sparse_s;
  service::ServiceStats sparse_stats;
};

EquivalenceRun RunEquivalence(const graph::DynamicDiGraph& graph,
                              const std::vector<graph::EdgeUpdate>& stream,
                              core::UpdateAlgorithm algorithm,
                              double epsilon) {
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 8;
  EquivalenceRun out;
  for (bool tiered : {false, true}) {
    auto index = core::DynamicSimRank::Create(graph, sr, algorithm);
    EXPECT_TRUE(index.ok());
    // Identical options either side — batch boundaries change coalescing
    // and hence FP order, so only the sparsity switch may differ.
    service::ServiceOptions options = TieredOptions(epsilon);
    options.sparse.enabled = tiered;
    auto service =
        service::SimRankService::Create(std::move(index).value(), options);
    EXPECT_TRUE(service.ok());
    // Flush after every Submit pins deterministic unit batches: batch
    // boundaries depend on applier timing otherwise, and coalescing makes
    // FP order a function of the boundary (shard_test's idiom).
    for (const graph::EdgeUpdate& u : stream) {
      EXPECT_TRUE((*service)->Submit(u).ok());
      EXPECT_TRUE((*service)->Flush().ok());
    }
    if (tiered) {
      out.sparse_s = (*service)->Snapshot()->scores.ToDense();
      out.sparse_stats = (*service)->stats();
    } else {
      out.dense_s = (*service)->Snapshot()->scores.ToDense();
    }
  }
  return out;
}

TEST(TieredService, EpsilonZeroIsBitwisePerAlgorithm) {
  auto seed = graph::ErdosRenyiGnm(20, 50, 5);
  ASSERT_TRUE(seed.ok());
  auto graph = graph::MaterializeGraph(20, seed.value());
  auto stream = InsertStream(graph, 12, 17);
  for (auto algorithm :
       {core::UpdateAlgorithm::kIncSR, core::UpdateAlgorithm::kIncUSR}) {
    EquivalenceRun run = RunEquivalence(graph, stream, algorithm, 0.0);
    EXPECT_TRUE(la::BitwiseEqual(run.sparse_s, run.dense_s));
    EXPECT_EQ(run.sparse_stats.sparse_eps_drops, 0u);
    EXPECT_EQ(run.sparse_stats.sparse_max_error_bound, 0.0);
    // The policy actually exercised the sparse layout.
    EXPECT_GT(run.sparse_stats.tier_demotions, 0u);
  }
}

TEST(TieredService, EpsilonErrorStaysWithinRecordedBound) {
  // A sparse graph, so rows carry many sub-epsilon scores to drop.
  auto seed = graph::ErdosRenyiGnm(40, 60, 9);
  ASSERT_TRUE(seed.ok());
  auto graph = graph::MaterializeGraph(40, seed.value());
  auto stream = InsertStream(graph, 16, 23);
  for (auto algorithm :
       {core::UpdateAlgorithm::kIncSR, core::UpdateAlgorithm::kIncUSR}) {
    EquivalenceRun run = RunEquivalence(graph, stream, algorithm, 1e-4);
    EXPECT_GT(run.sparse_stats.rows_sparse, 0u);
    double max_err = 0.0;
    for (std::size_t i = 0; i < run.dense_s.rows(); ++i) {
      for (std::size_t j = 0; j < run.dense_s.cols(); ++j) {
        max_err = std::max(max_err,
                           std::abs(run.sparse_s(i, j) - run.dense_s(i, j)));
      }
    }
    EXPECT_LE(max_err, run.sparse_stats.sparse_max_error_bound + 1e-15);
  }
}

// Four disjoint ER blocks: the shape that shards cleanly, with the stream
// confined to blocks so every update is intra-shard at any shard count.
void BuildShardableWorkload(graph::DynamicDiGraph* graph,
                            std::vector<graph::EdgeUpdate>* stream) {
  const std::size_t blocks = 4;
  const std::size_t bn = 10;
  *graph = graph::DynamicDiGraph(blocks * bn);
  Rng rng(31);
  for (std::size_t c = 0; c < blocks; ++c) {
    auto block_seed = graph::ErdosRenyiGnm(bn, 24, 40 + c);
    ASSERT_TRUE(block_seed.ok());
    auto block = graph::MaterializeGraph(bn, block_seed.value());
    const auto base = static_cast<graph::NodeId>(c * bn);
    for (const graph::Edge& e : block.Edges()) {
      ASSERT_TRUE(graph->AddEdge(base + e.src, base + e.dst).ok());
    }
    auto ins = graph::SampleInsertions(block, 6, &rng);
    ASSERT_TRUE(ins.ok());
    for (graph::EdgeUpdate u : ins.value()) {
      u.src += base;
      u.dst += base;
      stream->push_back(u);
    }
  }
}

TEST(TieredService, ShardedEquivalenceAtOneAndFourShards) {
  graph::DynamicDiGraph graph;
  std::vector<graph::EdgeUpdate> stream;
  BuildShardableWorkload(&graph, &stream);
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 8;

  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    // Dense sharded reference: same per-shard options, sparsity off, so
    // batch boundaries (and hence FP order) match the tiered run.
    shard::ShardedServiceOptions dense_options;
    dense_options.num_shards = shards;
    dense_options.per_shard = TieredOptions(1e-4);
    dense_options.per_shard.sparse.enabled = false;
    auto dense = shard::ShardedSimRankService::Create(graph, sr, dense_options);
    ASSERT_TRUE(dense.ok());
    // Tiered sharded candidate (the per-shard options carry the policy).
    shard::ShardedServiceOptions tiered_options;
    tiered_options.num_shards = shards;
    tiered_options.per_shard = TieredOptions(1e-4);
    auto tiered =
        shard::ShardedSimRankService::Create(graph, sr, tiered_options);
    ASSERT_TRUE(tiered.ok());

    // Unit batches (Flush per Submit) so boundaries are deterministic on
    // both sides — see RunEquivalence.
    for (const graph::EdgeUpdate& u : stream) {
      ASSERT_TRUE((*dense)->Submit(u).ok());
      ASSERT_TRUE((*dense)->Flush().ok());
      ASSERT_TRUE((*tiered)->Submit(u).ok());
      ASSERT_TRUE((*tiered)->Flush().ok());
    }

    const service::ServiceStats totals = (*tiered)->stats().total;
    EXPECT_GT(totals.rows_sparse, 0u);
    const double bound = totals.sparse_max_error_bound;
    const auto n = static_cast<graph::NodeId>(graph.num_nodes());
    for (graph::NodeId a = 0; a < n; ++a) {
      for (graph::NodeId b = 0; b < n; ++b) {
        auto exact = (*dense)->Score(a, b);
        auto served = (*tiered)->Score(a, b);
        ASSERT_TRUE(exact.ok() && served.ok());
        EXPECT_LE(std::abs(*served - *exact), bound + 1e-15)
            << "pair (" << a << ", " << b << ") at " << shards << " shard(s)";
      }
    }
  }
}

// ---- Concurrency: pinned views vs tier migration --------------------------

TEST(TieredConcurrency, PinnedViewStaysByteStableUnderTierMigration) {
  const std::size_t n = 24;
  la::DenseMatrix initial = TestMatrix(n, n, 41);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; j += 2) initial.RowPtr(i)[j] = 0.0;
  }
  la::ScoreStore store((la::DenseMatrix(initial)));
  // ε = 0.5 keeps a demoted row at most half full (even columns start at
  // zero and every later write stays below ε, so only odd columns ever
  // hold entries >= ε): every demotion passes the density gate, and a
  // merge into all columns fails it.
  store.set_sparsity({.epsilon = 0.5, .max_density = 0.5});

  std::mutex mu;
  auto latest = std::make_shared<const la::ScoreStore::View>(store.Publish());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      la::Vector scratch;
      do {
        std::shared_ptr<const la::ScoreStore::View> pinned;
        {
          std::lock_guard<std::mutex> lock(mu);
          pinned = latest;
        }
        // Checksum twice with tier churn in between; a migration that
        // mutated shared bytes diverges the sums.
        double sum1 = 0.0;
        double sum2 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double* row = pinned->ReadRow(i, &scratch);
          for (std::size_t j = 0; j < n; ++j) sum1 += row[j];
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double* row = pinned->ReadRow(i, &scratch);
          for (std::size_t j = 0; j < n; ++j) sum2 += row[j];
        }
        INCSR_CHECK(sum1 == sum2, "pinned view bytes changed");
        checks.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }

  Rng rng(55);
  la::RowWriter writer;
  for (int epoch = 0; epoch < 200; ++epoch) {
    // Tier churn + writes: every epoch demotes a band, spills a demoted
    // band to dense through the write path's density gate, and writes a
    // spilled band in place (dense copy-on-write). Written values stay
    // below ε, so the next demotion drops them again.
    for (std::size_t i = 0; i < n; ++i) {
      switch ((i + static_cast<std::size_t>(epoch)) % 3) {
        case 0:
          store.SparsifyRow(i, {});
          break;
        case 1:
          store.BeginWriteRow(i, &writer);
          for (std::size_t j = 0; j < n; ++j) {
            writer.Add(j, 0.5 * rng.NextDouble());
          }
          store.CommitWriteRow(&writer);
          break;
        default:
          SetEntryDense(&store, i, rng.NextBounded(n),
                        0.5 * rng.NextDouble());
      }
    }
    auto next = std::make_shared<const la::ScoreStore::View>(store.Publish());
    std::lock_guard<std::mutex> lock(mu);
    latest = std::move(next);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(checks.load(), 0u);
  EXPECT_GT(store.stats().rows_sparsified, 0u);
  EXPECT_GT(store.stats().rows_spilled_dense, 0u);
  EXPECT_EQ(store.stats().sparse_write_merges, 0u);  // every merge spilled
  EXPECT_GT(store.stats().rows_copied, 0u);
}

// ---- CreateIsolated --------------------------------------------------------

TEST(CreateIsolated, MatchesDenseCreateBeforeAndAfterInserts) {
  const std::size_t n = 12;
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 8;
  auto isolated = core::DynamicSimRank::CreateIsolated(n, sr);
  auto dense = core::DynamicSimRank::Create(graph::DynamicDiGraph(n), sr);
  ASSERT_TRUE(isolated.ok());
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(la::MaxAbsDiff(isolated->scores(), dense->scores()), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(isolated->scores().RowIsSparse(i));
    EXPECT_EQ(isolated->Score(static_cast<graph::NodeId>(i),
                              static_cast<graph::NodeId>(i)),
              1.0 - sr.damping);
  }

  // Same kernels, same bytes once structure grows (rows densify on write).
  const graph::Edge edges[] = {{0, 1}, {2, 1}, {3, 1}, {0, 4}, {5, 4}, {2, 6}};
  for (const graph::Edge& e : edges) {
    ASSERT_TRUE(isolated->InsertEdge(e.src, e.dst).ok());
    ASSERT_TRUE(dense->InsertEdge(e.src, e.dst).ok());
  }
  EXPECT_TRUE(
      la::BitwiseEqual(isolated->scores().ToDense(), dense->scores().ToDense()));
}

// ---- Stored-entry read -------------------------------------------------------

// Same items with the same score BITS (ScoredPair's == takes −0.0 for +0.0).
bool SameBits(const std::vector<core::ScoredPair>& x,
              const std::vector<core::ScoredPair>& y) {
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

// A row mixing the cases the stored-entry read must get right: positive,
// negative, tied and −0.0 entries between runs of +0.0, at a density drawn
// per row (empty, a handful, a tenth, half, full).
void FillMixedRow(Rng* rng, std::size_t n, double* row) {
  const double densities[] = {0.0, 0.05, 0.1, 0.5, 1.0};
  const double density = densities[rng->NextBounded(5)];
  for (std::size_t j = 0; j < n; ++j) {
    row[j] = 0.0;
    if (!(rng->NextDouble() < density)) continue;
    switch (rng->NextBounded(5)) {
      case 0: row[j] = rng->NextDouble(); break;
      case 1: row[j] = -rng->NextDouble(); break;
      case 2: row[j] = 0.25; break;  // ties break on ascending id
      case 3: row[j] = -0.0; break;
      default: row[j] = 1e-300; break;
    }
  }
}

TEST(StoredEntryRead, TopKForOfMatchesTheDenseScanBitwise) {
  const std::size_t n = 48;
  Rng rng(2024);
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) FillMixedRow(&rng, n, dense.RowPtr(i));
  dense(0, 0) = 0.5;   // a stored diagonal
  dense(1, 1) = 0.0;   // an absent diagonal
  dense(3, 3) = -0.0;  // a stored −0.0 diagonal
  la::ScoreStore store(dense);
  la::SparsityConfig sparsity;
  sparsity.max_density = 1.0;
  store.set_sparsity(sparsity);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 2) {
      ASSERT_TRUE(store.SparsifyRow(i, {}));  // ε = 0: lossless
    }
  }
  const la::ScoreStore::View view = store.Publish();
  ASSERT_TRUE(la::BitwiseEqual(store.ToDense(), dense));

  for (std::size_t i = 0; i < n; ++i) {
    // The read visits exactly the entries that are not +0.0, ascending.
    std::vector<std::size_t> visited;
    store.ForEachStored(i, [&](std::size_t col, double value) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                std::bit_cast<std::uint64_t>(dense(i, col)));
      visited.push_back(col);
    });
    std::vector<std::size_t> expected;
    for (std::size_t j = 0; j < n; ++j) {
      if (std::bit_cast<std::uint64_t>(dense(i, j)) != 0) expected.push_back(j);
    }
    EXPECT_EQ(visited, expected) << "row " << i;

    const auto query = static_cast<graph::NodeId>(i);
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{7}, std::size_t{16}, n - 2, n - 1, n,
                          n + 5}) {
      const auto reference = core::TopKForOf(dense, query, k);
      EXPECT_EQ(reference.size(), std::min(k, n - 1));
      EXPECT_TRUE(SameBits(core::TopKForOf(store, query, k), reference))
          << "store row " << i << " k " << k;
      EXPECT_TRUE(SameBits(core::TopKForOf(view, query, k), reference))
          << "view row " << i << " k " << k;
    }
  }
}

TEST(StoredEntryRead, TopKPairsOfMatchesTheDenseScanBitwise) {
  // Mixed rows (empty ones among them, so +0.0 pairs fill deep results),
  // two thirds sparse, read against the densified copy at ε = 0.
  const std::size_t n = 40;
  Rng rng(2025);
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) FillMixedRow(&rng, n, dense.RowPtr(i));
  dense(2, 3) = -0.0;  // a stored −0.0 ties the +0.0 pairs on score
  dense(5, 9) = -0.5;  // a negative pair ranks after every zero
  la::ScoreStore store(dense);
  la::SparsityConfig sparsity;
  sparsity.max_density = 1.0;
  store.set_sparsity(sparsity);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 != 2) {
      ASSERT_TRUE(store.SparsifyRow(i, {}));  // ε = 0: lossless
    }
  }
  const la::ScoreStore::View view = store.Publish();
  const la::DenseMatrix reference_matrix = store.ToDense();
  ASSERT_TRUE(la::BitwiseEqual(reference_matrix, dense));

  const std::size_t pairs = n * (n - 1) / 2;
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                        std::size_t{37}, std::size_t{200}, pairs - 1, pairs,
                        pairs + 9}) {
    const auto reference = core::TopKPairsOf(reference_matrix, k);
    EXPECT_EQ(reference.size(), std::min(k, pairs));
    EXPECT_TRUE(SameBits(core::TopKPairsOf(store, k), reference))
        << "store k " << k;
    EXPECT_TRUE(SameBits(core::TopKPairsOf(view, k), reference))
        << "view k " << k;
  }
}

TEST(StoredEntryRead, TopKIndexOnCreateIsolatedMatchesTheDenseScan) {
  const std::size_t n = 300;
  const std::size_t local = 40;  // the churn stays on the first ids
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 10;
  auto index = core::DynamicSimRank::CreateIsolated(n, sr);
  ASSERT_TRUE(index.ok());
  service::TopKIndex topk(/*capacity=*/16);
  topk.RebuildAll(index->scores());
  index->mutable_score_store()->Publish();

  Rng rng(91);
  std::vector<graph::Edge> present;
  for (int round = 0; round < 12; ++round) {
    for (int u = 0; u < 6; ++u) {
      if (!present.empty() && rng.NextBounded(3) == 0) {
        const std::size_t pick = rng.NextBounded(present.size());
        ASSERT_TRUE(
            index->DeleteEdge(present[pick].src, present[pick].dst).ok());
        present.erase(present.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      const auto src = static_cast<graph::NodeId>(rng.NextBounded(local));
      const auto dst = static_cast<graph::NodeId>(rng.NextBounded(local));
      if (src == dst || index->graph().HasEdge(src, dst)) continue;
      ASSERT_TRUE(index->InsertEdge(src, dst).ok());
      present.push_back({src, dst});
    }
    ASSERT_FALSE(index->AllScoreRowsTouched());
    topk.RebuildRows(index->scores(), index->TouchedScoreRows());
    index->mutable_score_store()->Publish();
  }
  ASSERT_FALSE(present.empty());

  const la::DenseMatrix reference = index->scores().ToDense();
  std::size_t sparse_rows = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (index->scores().RowIsSparse(i)) ++sparse_rows;
    const auto items = topk.EntryItems(i);
    EXPECT_TRUE(SameBits({items.begin(), items.end()},
                         core::TopKForOf(reference,
                                         static_cast<graph::NodeId>(i), 16)))
        << "row " << i;
  }
  EXPECT_GT(sparse_rows, n / 2);
}

// ---- Graph COW --------------------------------------------------------------

TEST(GraphCow, SnapshotStaysByteStableAcrossMutation) {
  graph::DynamicDiGraph g(6);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  graph::DynamicDiGraph::View snap = g.Snapshot();
  EXPECT_EQ(snap.num_edges(), 2u);
  EXPECT_EQ(g.cow_bytes_copied(), 0u);  // snapshot itself copies nothing

  ASSERT_TRUE(g.AddEdge(0, 3).ok());
  ASSERT_TRUE(g.RemoveEdge(2, 1).ok());
  EXPECT_GT(g.cow_bytes_copied(), 0u);
  // The pinned view still serves the pre-mutation adjacency.
  EXPECT_EQ(snap.num_edges(), 2u);
  EXPECT_TRUE(snap.HasEdge(2, 1));
  EXPECT_FALSE(snap.HasEdge(0, 3));
  ASSERT_EQ(snap.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(snap.OutNeighbors(0)[0], 1);
  EXPECT_EQ(g.OutNeighbors(0).size(), 2u);
}

TEST(GraphCow, CopiesHaveValueSemanticsWithLazyPayload) {
  graph::DynamicDiGraph g(5);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  graph::DynamicDiGraph copy = g;
  EXPECT_TRUE(copy == g);

  // Mutating either side never shows through on the other.
  ASSERT_TRUE(g.AddEdge(3, 4).ok());
  EXPECT_FALSE(copy.HasEdge(3, 4));
  ASSERT_TRUE(copy.RemoveEdge(0, 1).ok());
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(copy.num_edges(), 1u);
}

}  // namespace
}  // namespace incsr

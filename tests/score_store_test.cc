// Tests for the per-row copy-on-write ScoreStore and its integration with
// the incremental engines:
//   - COW mechanics: publishes are pointer-table bumps, first post-publish
//     write clones exactly the touched row, pinned views stay bitwise
//     stable, copy accounting matches.
//   - Bitwise engine equivalence: for EVERY UpdateAlgorithm (and the
//     coalesced batch path) a mixed insert/delete stream applied through a
//     store with epoch publishes and pinned views interleaved — so every
//     write copies-on-write — produces a matrix bitwise identical to the
//     same stream applied through a never-published store, whose writes
//     all land in place.
//   - Concurrency: a pinned view stays byte-stable while a writer thread
//     COWs rows and republishes. The suite is TSan-clean; CI runs it under
//     -fsanitize=thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "core/inc_sr.h"
#include "core/inc_usr.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "simrank/batch_matrix.h"

namespace incsr::la {
namespace {

DenseMatrix TestMatrix(std::size_t rows, std::size_t cols,
                       std::uint64_t seed = 7) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = m.RowPtr(i);
    for (std::size_t j = 0; j < cols; ++j) row[j] = rng.NextDouble();
  }
  return m;
}

// Overwrites entry (i, j) through a write session, the store's one write
// path (a shared dense row is copy-on-written at Begin).
void SetEntry(ScoreStore* store, std::size_t i, std::size_t j, double v) {
  RowWriter writer;
  store->BeginWriteRow(i, &writer);
  writer.Dense()[j] = v;
  store->CommitWriteRow(&writer);
}

TEST(ScoreStore, RoundTripsDenseContent) {
  DenseMatrix dense = TestMatrix(9, 9);
  ScoreStore store(dense);
  EXPECT_EQ(store.rows(), 9u);
  EXPECT_EQ(store.cols(), 9u);
  EXPECT_TRUE(BitwiseEqual(store.ToDense(), dense));
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_EQ(store(i, j), dense(i, j));
    }
  }
  EXPECT_EQ(MaxAbsDiff(store, dense), 0.0);
}

TEST(ScoreStore, WritesWithoutPublishNeverCopy) {
  ScoreStore store(TestMatrix(8, 8));
  for (std::size_t i = 0; i < 8; ++i) SetEntry(&store, i, 0, 1.5);
  EXPECT_EQ(store.stats().rows_copied, 0u);
  EXPECT_EQ(store.stats().bytes_copied, 0u);
  EXPECT_EQ(store(7, 0), 1.5);
}

TEST(ScoreStore, PublishThenWriteCopiesExactlyTouchedRows) {
  const std::size_t n = 16;
  ScoreStore store(TestMatrix(n, n));
  ScoreStore::View view = store.Publish();
  EXPECT_EQ(store.stats().publishes, 1u);
  EXPECT_EQ(store.stats().rows_copied, 0u);  // publishing copies nothing

  SetEntry(&store, 3, 5, 42.0);
  SetEntry(&store, 3, 6, 43.0);  // same row again: no second copy
  SetEntry(&store, 9, 0, 44.0);
  EXPECT_EQ(store.stats().rows_copied, 2u);
  EXPECT_EQ(store.stats().bytes_copied, 2u * n * sizeof(double));

  // The store sees the writes; the pinned view still serves the old bytes.
  EXPECT_EQ(store(3, 5), 42.0);
  EXPECT_NE(view(3, 5), 42.0);
  EXPECT_NE(view(9, 0), 44.0);

  // Untouched rows are physically shared between store and view (a dense
  // row's ReadRow returns its payload pointer, never the scratch).
  Vector scratch;
  EXPECT_EQ(store.ReadRow(0, &scratch), view.ReadRow(0, &scratch));
  EXPECT_NE(store.ReadRow(3, &scratch), view.ReadRow(3, &scratch));
}

TEST(ScoreStore, PinnedViewIsImmutableAcrossManyEpochs) {
  const std::size_t n = 12;
  DenseMatrix initial = TestMatrix(n, n);
  ScoreStore store(initial);
  ScoreStore::View pinned = store.Publish();
  DenseMatrix pinned_bytes = pinned.ToDense();

  Rng rng(3);
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (int w = 0; w < 5; ++w) {
      const auto i = static_cast<std::size_t>(rng.NextBounded(n));
      const auto j = static_cast<std::size_t>(rng.NextBounded(n));
      SetEntry(&store, i, j, rng.NextDouble());
    }
    ScoreStore::View latest = store.Publish();
    EXPECT_TRUE(BitwiseEqual(latest.ToDense(), store.ToDense()));
  }
  EXPECT_TRUE(BitwiseEqual(pinned.ToDense(), pinned_bytes));
  EXPECT_TRUE(BitwiseEqual(pinned_bytes, initial));
}

TEST(ScoreStore, GrowByIsolatedNodeKeepsTiersAndOldViewsSurvive) {
  // Mixed tiers: rows 0-2 stay sparse (identity rows), rows 3-5 dense.
  ScoreStore store = ScoreStore::ScaledIdentity(6, 0.4);
  // A write session spilled by Dense() makes a row dense; the content
  // stays the identity row.
  for (std::size_t i = 3; i < 6; ++i) SetEntry(&store, i, i, 0.4);
  for (std::size_t i = 3; i < 6; ++i) ASSERT_FALSE(store.RowIsSparse(i));
  SetEntry(&store, 4, 1, 0.25);
  ScoreStore::View old_view = store.Publish();
  DenseMatrix old_bytes = old_view.ToDense();

  store.GrowByIsolatedNode(0.4);
  EXPECT_EQ(store.rows(), 7u);
  EXPECT_EQ(store.cols(), 7u);
  EXPECT_TRUE(store.all_rows_touched());
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(store.RowIsSparse(i), i < 3 || i == 6) << "row " << i;
  }
  DenseMatrix grown = store.ToDense();
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(grown(i, j), old_bytes(i, j));
    EXPECT_EQ(grown(i, 6), 0.0);
    EXPECT_EQ(grown(6, i), 0.0);
  }
  EXPECT_EQ(grown(6, 6), 0.4);

  // Rebuilt dense rows are unshared: writing one copies nothing. A reused
  // sparse block is still shared with old_view, so a merge into its row
  // must build a new block rather than rewrite the one old_view holds.
  SetEntry(&store, 5, 6, -1.0);
  EXPECT_EQ(store.stats().rows_copied, 0u);
  RowWriter writer;
  store.BeginWriteRow(1, &writer);
  writer.Add(0, 0.5);
  store.CommitWriteRow(&writer);
  EXPECT_TRUE(store.RowIsSparse(1));
  EXPECT_EQ(store(1, 0), 0.5);

  EXPECT_EQ(old_view.rows(), 6u);
  EXPECT_EQ(old_view.cols(), 6u);
  EXPECT_TRUE(BitwiseEqual(old_view.ToDense(), old_bytes));
}

// ---- Bitwise engine equivalence ------------------------------------------

// Mixed insert/delete stream where every edge appears once, so it is valid
// in any order and against both replicas.
std::vector<graph::EdgeUpdate> MixedStream(const graph::DynamicDiGraph& graph,
                                           std::size_t inserts,
                                           std::size_t deletes,
                                           std::uint64_t seed) {
  Rng rng(seed);
  auto ins = graph::SampleInsertions(graph, inserts, &rng);
  auto del = graph::SampleDeletions(graph, deletes, &rng);
  INCSR_CHECK(ins.ok() && del.ok(), "sampling failed");
  std::vector<graph::EdgeUpdate> stream;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < ins->size() || b < del->size()) {  // deterministic interleave
    if (a < ins->size()) stream.push_back((*ins)[a++]);
    if (b < del->size()) stream.push_back((*del)[b++]);
  }
  return stream;
}

// Applies `stream` to two replicas of the same state — a store that
// publishes an epoch (and pins the view) after every update, so every
// write copies-on-write, and a store that never publishes, so every write
// lands in place — and requires bitwise-identical results after every
// single update. `apply` gets the replica index (0: copy-on-write,
// 1: in place) so stateful engines can keep one instance per replica.
template <typename ApplyFn>
void ExpectCowMatchesInPlace(const graph::DynamicDiGraph& graph,
                             const simrank::SimRankOptions& options,
                             const std::vector<graph::EdgeUpdate>& stream,
                             ApplyFn&& apply) {
  graph::DynamicDiGraph g_cow = graph;
  graph::DynamicDiGraph g_in_place = graph;
  la::DynamicRowMatrix q_cow = graph::BuildTransition(g_cow);
  la::DynamicRowMatrix q_in_place = graph::BuildTransition(g_in_place);
  const DenseMatrix s0 = simrank::BatchMatrix(graph, options);
  ScoreStore s_cow{s0};
  ScoreStore s_in_place{s0};

  std::vector<ScoreStore::View> pinned;
  pinned.push_back(s_cow.Publish());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    ASSERT_TRUE(apply(0, stream[k], &g_cow, &q_cow, &s_cow).ok())
        << "copy-on-write path failed at update " << k;
    ASSERT_TRUE(apply(1, stream[k], &g_in_place, &q_in_place, &s_in_place).ok())
        << "in-place path failed at update " << k;
    ASSERT_TRUE(BitwiseEqual(s_cow.ToDense(), s_in_place.ToDense()))
        << "bitwise divergence after update " << k;
    pinned.push_back(s_cow.Publish());  // force COW on the next update
  }
  EXPECT_GT(s_cow.stats().rows_copied, 0u);
  EXPECT_EQ(s_in_place.stats().rows_copied, 0u);
}

simrank::SimRankOptions EngineOptions() {
  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 10;
  return options;
}

TEST(ScoreStoreEngineEquivalence, IncSrUnitUpdatesAreBitwiseIdentical) {
  auto stream_seed = graph::ErdosRenyiGnm(20, 60, 5);
  ASSERT_TRUE(stream_seed.ok());
  auto graph = graph::MaterializeGraph(20, stream_seed.value());
  auto updates = MixedStream(graph, 10, 6, 17);

  core::IncSrEngine cow_engine(EngineOptions());
  core::IncSrEngine in_place_engine(EngineOptions());
  ExpectCowMatchesInPlace(
      graph, EngineOptions(), updates,
      [&](std::size_t replica, const graph::EdgeUpdate& u,
          graph::DynamicDiGraph* g, la::DynamicRowMatrix* q, ScoreStore* s) {
        core::IncSrEngine& engine = replica == 0 ? cow_engine : in_place_engine;
        return engine.ApplyUpdate(u, g, q, s);
      });
}

TEST(ScoreStoreEngineEquivalence, IncUsrUnitUpdatesAreBitwiseIdentical) {
  auto stream_seed = graph::ErdosRenyiGnm(14, 40, 9);
  ASSERT_TRUE(stream_seed.ok());
  auto graph = graph::MaterializeGraph(14, stream_seed.value());
  auto updates = MixedStream(graph, 6, 4, 23);

  ExpectCowMatchesInPlace(
      graph, EngineOptions(), updates,
      [&](std::size_t /*replica*/, const graph::EdgeUpdate& u,
          graph::DynamicDiGraph* g, la::DynamicRowMatrix* q, ScoreStore* s) {
        return core::IncUsrApplyUpdate(u, EngineOptions(), g, q, s);
      });
}

TEST(ScoreStoreEngineEquivalence, CoalescedBatchesAreBitwiseIdentical) {
  auto stream_seed = graph::ErdosRenyiGnm(18, 50, 13);
  ASSERT_TRUE(stream_seed.ok());
  auto graph = graph::MaterializeGraph(18, stream_seed.value());
  auto updates = MixedStream(graph, 12, 6, 29);

  const DenseMatrix s0 = simrank::BatchMatrix(graph, EngineOptions());
  auto cow = core::DynamicSimRank::FromState(graph, s0, EngineOptions());
  auto in_place = core::DynamicSimRank::FromState(graph, s0, EngineOptions());
  ASSERT_TRUE(cow.ok() && in_place.ok());

  // Split the stream into three batches with a publish (pinned view)
  // between them on the copy-on-write replica, as the serving layer would.
  std::vector<ScoreStore::View> pinned;
  pinned.push_back(cow->mutable_score_store()->Publish());
  const std::size_t third = updates.size() / 3;
  for (std::size_t part = 0; part < 3; ++part) {
    const std::size_t lo = part * third;
    const std::size_t hi = part == 2 ? updates.size() : lo + third;
    std::vector<graph::EdgeUpdate> batch(updates.begin() + lo,
                                         updates.begin() + hi);
    ASSERT_TRUE(cow->ApplyBatchCoalesced(batch).ok());
    ASSERT_TRUE(in_place->ApplyBatchCoalesced(batch).ok());
    pinned.push_back(cow->mutable_score_store()->Publish());
    ASSERT_TRUE(BitwiseEqual(cow->scores().ToDense(),
                             in_place->scores().ToDense()))
        << "divergence after batch " << part;
    EXPECT_EQ(cow->last_batch_stats().a_sizes,
              in_place->last_batch_stats().a_sizes);
  }
  EXPECT_GT(cow->scores().stats().rows_copied, 0u);
  EXPECT_EQ(in_place->scores().stats().rows_copied, 0u);
}

TEST(ScoreStoreEngineEquivalence, DynamicSimRankMatchesInPlaceReference) {
  // End-to-end: the index (with publishes interleaved) stays bitwise
  // identical to a never-published replica driven by the same engine, for
  // every UpdateAlgorithm.
  auto stream_seed = graph::ErdosRenyiGnm(16, 44, 31);
  ASSERT_TRUE(stream_seed.ok());
  auto graph = graph::MaterializeGraph(16, stream_seed.value());

  for (auto algorithm :
       {core::UpdateAlgorithm::kIncSR, core::UpdateAlgorithm::kIncUSR}) {
    auto index = core::DynamicSimRank::Create(graph, EngineOptions(),
                                              algorithm);
    ASSERT_TRUE(index.ok());
    ScoreStore s_ref{index->scores().ToDense()};
    graph::DynamicDiGraph g_ref = graph;
    la::DynamicRowMatrix q_ref = graph::BuildTransition(g_ref);
    core::IncSrEngine ref_engine(index->options());

    auto updates = MixedStream(graph, 8, 5, 37);
    std::vector<ScoreStore::View> pinned;
    for (const graph::EdgeUpdate& u : updates) {
      ASSERT_TRUE(index->ApplyUpdate(u).ok());
      pinned.push_back(index->mutable_score_store()->Publish());
      if (algorithm == core::UpdateAlgorithm::kIncSR) {
        ASSERT_TRUE(ref_engine.ApplyUpdate(u, &g_ref, &q_ref, &s_ref).ok());
      } else {
        ASSERT_TRUE(core::IncUsrApplyUpdate(u, index->options(), &g_ref,
                                            &q_ref, &s_ref)
                        .ok());
      }
      ASSERT_TRUE(BitwiseEqual(index->scores().ToDense(), s_ref.ToDense()));
    }
  }
}

// ---- Concurrency: pinned snapshot byte-stability under COW ---------------

// The serving-layer contract reproduced at store level: a reader pins a
// view while the writer keeps COW-mutating rows and publishing epochs.
// The pinned bytes must never change. TSan-clean: views cross threads via
// a mutex, shards are immutable once shared.
TEST(ScoreStoreConcurrency, PinnedViewStaysByteStableUnderWriter) {
  const std::size_t n = 32;
  ScoreStore store(TestMatrix(n, n, /*seed=*/41));

  std::mutex mu;
  std::shared_ptr<const ScoreStore::View> latest =
      std::make_shared<const ScoreStore::View>(store.Publish());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<std::uint64_t>(r));
      // do-while: at least one pinned-view check per reader even if the
      // writer outruns reader scheduling on a loaded single-core box.
      do {
        std::shared_ptr<const ScoreStore::View> pinned;
        {
          std::lock_guard<std::mutex> lock(mu);
          pinned = latest;
        }
        // Checksum the pinned view twice with writer activity in between;
        // any COW bug that mutated shared bytes diverges the sums.
        Vector scratch;
        double sum1 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double* row = pinned->ReadRow(i, &scratch);
          for (std::size_t j = 0; j < n; ++j) sum1 += row[j];
        }
        double sum2 = 0.0;
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
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (int w = 0; w < 8; ++w) {
      const auto i = static_cast<std::size_t>(rng.NextBounded(n));
      const auto j = static_cast<std::size_t>(rng.NextBounded(n));
      SetEntry(&store, i, j, rng.NextDouble());
    }
    auto next = std::make_shared<const ScoreStore::View>(store.Publish());
    std::lock_guard<std::mutex> lock(mu);
    latest = std::move(next);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(checks.load(), 0u);
  EXPECT_GT(store.stats().rows_copied, 0u);
}

}  // namespace
}  // namespace incsr::la

// Property suite for the sparse-native write path (docs/score_store.md):
//   - RowWriter sessions: merge commits keep rows sparse and reproduce the
//     densified byte sequence exactly (first-touch seeding + in-order
//     deltas), exact +0.0 merge results elide losslessly, the max_density
//     gate spills to dense and judges the merged row (not the touched
//     columns), kernels may spill explicitly via Dense(), and
//     an untouched session is a no-op.
//   - One session per row per update: an Inc-SR unit or coalesced update
//     commits each row it writes once, so its merges plus spills equal
//     its touched rows.
//   - Counters: write-path spills count in rows_spilled_dense;
//     epoch_peak_dense_bytes watermarks the transient dense footprint and
//     resets at Publish(). Power-law churn into an isolated-node store
//     merges sparse throughout: zero transient dense bytes, zero spills.
//   - Service equivalence: a tiered service on the sparse-native write
//     path agrees bitwise with a dense-backed service (sparsity off) at
//     eps = 0 and stays within its own recorded error bound at eps > 0,
//     per UpdateAlgorithm. CI runs this suite at INCSR_THREADS 1 and 4
//     under TSan and ASan.
//   - Concurrency: pinned View bytes survive concurrent sparse merge
//     commits (including the writer-private in-place swap), write-path
//     spills and demotions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "core/inc_sr.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "la/row_writer.h"
#include "la/score_store.h"
#include "service/simrank_service.h"
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

// All-sparse store with one diagonal entry per row — the CreateIsolated
// shape, and the simplest base for write-session assertions.
la::ScoreStore SparseIdentity(std::size_t n, double value) {
  la::ScoreStore store = la::ScoreStore::ScaledIdentity(n, value);
  store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
  return store;
}

// Overwrites entry (i, j) through a session that spills to dense
// (RowWriter::Dense) — a write-path spill on a sparse row.
void SpillWrite(la::ScoreStore* store, std::size_t i, std::size_t j,
                double v) {
  la::RowWriter w;
  store->BeginWriteRow(i, &w);
  w.Dense()[j] = v;
  store->CommitWriteRow(&w);
}

// ---- RowWriter sessions ----------------------------------------------------

TEST(RowWriterSession, SeedsFromBaseAndAccumulatesInEmissionOrder) {
  la::ScoreStore store = SparseIdentity(8, 0.4);
  la::RowWriter w;
  store.BeginWriteRow(2, &w);
  EXPECT_FALSE(w.is_dense());
  w.Add(2, 0.1);   // existing entry: accumulator seeds with 0.4
  w.Add(5, 0.25);  // absent entry: seeds with exact +0.0
  w.Add(5, 0.25);
  store.CommitWriteRow(&w);

  EXPECT_TRUE(store.RowIsSparse(2));
  EXPECT_EQ(store(2, 2), 0.4 + 0.1);  // same FP sequence as a dense row
  EXPECT_EQ(store(2, 5), (0.0 + 0.25) + 0.25);
  EXPECT_EQ(store.stats().sparse_write_merges, 1u);
  EXPECT_EQ(store.stats().rows_spilled_dense, 0u);
  EXPECT_EQ(store.stats().rows_sparse, 8u);
}

TEST(RowWriterSession, IdenticalSessionsMatchDenseBackedRowsBitwise) {
  const std::size_t n = 16;
  la::DenseMatrix initial(n, n);  // zero-initialized
  for (std::size_t i = 0; i < n; ++i) initial.RowPtr(i)[i] = 0.4;

  // Two stores, same bytes, one all-sparse and one never sparsified;
  // replay one identical session sequence (repeat columns, overlapping
  // entries) through both.
  auto run = [&](bool sparse) {
    la::ScoreStore store(initial);
    store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
    for (std::size_t i = 0; sparse && i < n; ++i) {
      EXPECT_TRUE(store.SparsifyRow(i, {}));
    }
    Rng rng(77);
    la::RowWriter w;
    for (int round = 0; round < 4; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        store.BeginWriteRow(i, &w);
        for (int k = 0; k < 6; ++k) {
          w.Add(rng.NextBounded(n), rng.NextDouble() - 0.5);
        }
        store.CommitWriteRow(&w);
      }
    }
    EXPECT_EQ(store.stats().sparse_write_merges > 0, sparse);
    return store.ToDense();
  };
  EXPECT_TRUE(la::BitwiseEqual(run(true), run(false)));
}

TEST(RowWriterSession, ExactPositiveZeroMergeResultElidesLosslessly) {
  la::ScoreStore store = SparseIdentity(8, 0.5);
  const std::uint64_t payload_before = store.stats().sparse_payload_bytes;
  la::RowWriter w;
  store.BeginWriteRow(3, &w);
  w.Add(3, -0.5);  // 0.5 + (-0.5) == +0.0 exactly: the entry vanishes
  store.CommitWriteRow(&w);

  EXPECT_TRUE(store.RowIsSparse(3));
  EXPECT_EQ(store(3, 3), 0.0);
  EXPECT_LT(store.stats().sparse_payload_bytes, payload_before);
  // Lossless: nothing entered the error ledger.
  EXPECT_EQ(store.stats().eps_drops, 0u);
  EXPECT_EQ(store.stats().max_error_bound, 0.0);
}

TEST(RowWriterSession, MaxDensityGateSpillsToDense) {
  la::ScoreStore store = SparseIdentity(8, 0.4);
  store.set_sparsity({.epsilon = 0.0, .max_density = 0.25});  // max_nnz = 2
  la::RowWriter w;
  store.BeginWriteRow(1, &w);
  for (std::size_t col = 2; col < 6; ++col) w.Add(col, 0.125);
  store.CommitWriteRow(&w);

  EXPECT_FALSE(store.RowIsSparse(1));
  EXPECT_EQ(store.stats().rows_spilled_dense, 1u);
  EXPECT_EQ(store.stats().rows_sparse, 7u);
  EXPECT_EQ(store(1, 1), 0.4);  // base entry survived the spill gather
  for (std::size_t col = 2; col < 6; ++col) EXPECT_EQ(store(1, col), 0.125);
}

// The gate judges the row the session commits, not the columns it
// touched: writes that cancel to exact +0.0 leave no entry behind. An
// Inc-SR session spans all K+1 scatters of an update, so this is the
// verdict a row gets once per update.
TEST(RowWriterSession, MaxDensityGateJudgesTheMergedRow) {
  const std::size_t n = 8;
  la::DenseMatrix initial(n, n);  // zero-initialized
  for (std::size_t i = 0; i < n; ++i) initial.RowPtr(i)[i] = 0.4;
  auto write = [](la::ScoreStore* store, la::RowWriter* w) {
    store->BeginWriteRow(1, w);
    for (std::size_t col = 2; col < 6; ++col) w->Add(col, 0.125);
    for (std::size_t col = 2; col < 5; ++col) w->Add(col, -0.125);
  };

  la::ScoreStore store = SparseIdentity(n, 0.4);
  store.set_sparsity({.epsilon = 0.0, .max_density = 0.25});  // max_nnz = 2
  la::RowWriter w;
  write(&store, &w);
  EXPECT_GT(w.touched_count(), 2u);  // touched past the gate...
  store.CommitWriteRow(&w);
  EXPECT_TRUE(store.RowIsSparse(1));  // ...but merged to {1, 5}: under it
  EXPECT_EQ(store.stats().rows_spilled_dense, 0u);
  EXPECT_EQ(store.stats().sparse_write_merges, 1u);

  la::ScoreStore dense(initial);
  write(&dense, &w);
  dense.CommitWriteRow(&w);
  EXPECT_TRUE(la::BitwiseEqual(store.ToDense(), dense.ToDense()));
}

TEST(RowWriterSession, KernelSpillViaDensePointer) {
  la::ScoreStore store = SparseIdentity(8, 0.4);
  la::RowWriter w;
  store.BeginWriteRow(1, &w);
  w.Add(6, 0.2);  // accumulated before the spill: must flush onto it
  double* row = w.Dense();
  EXPECT_TRUE(w.is_dense());
  EXPECT_EQ(row[1], 0.4);  // gathered base
  EXPECT_EQ(row[6], 0.2);  // flushed accumulator
  row[0] += 0.3;
  store.CommitWriteRow(&w);

  EXPECT_FALSE(store.RowIsSparse(1));
  EXPECT_EQ(store.stats().rows_spilled_dense, 1u);
  EXPECT_EQ(store(1, 0), 0.3);
  EXPECT_EQ(store(1, 1), 0.4);
  EXPECT_EQ(store(1, 6), 0.2);
}

TEST(RowWriterSession, UntouchedSessionIsANoOp) {
  la::ScoreStore store = SparseIdentity(8, 0.4);
  la::ScoreStore::View view = store.Publish();
  la::RowWriter w;
  store.BeginWriteRow(4, &w);
  store.CommitWriteRow(&w);

  EXPECT_TRUE(store.RowIsSparse(4));
  EXPECT_EQ(store.stats().sparse_write_merges, 0u);
  EXPECT_EQ(store.stats().rows_spilled_dense, 0u);
  // The readable bytes never changed, so the touched delta stays empty.
  EXPECT_TRUE(store.touched_rows().empty());
  EXPECT_EQ(view(4, 4), 0.4);
}

TEST(RowWriterSession, CommitCopiesOnWriteThenMergesInPlace) {
  la::ScoreStore store = SparseIdentity(8, 0.4);
  la::ScoreStore::View view = store.Publish();
  la::RowWriter w;

  // First commit after a publish: the shared block is displaced (COW).
  store.BeginWriteRow(2, &w);
  w.Add(5, 0.7);
  store.CommitWriteRow(&w);
  ASSERT_EQ(store.touched_rows().size(), 1u);
  EXPECT_EQ(store.touched_rows()[0], 2);

  // Second commit in the same epoch rides the writer-private in-place
  // swap; the pinned view must keep reading the pre-publish bytes.
  store.BeginWriteRow(2, &w);
  w.Add(6, 0.1);
  store.CommitWriteRow(&w);

  EXPECT_EQ(view(2, 5), 0.0);
  EXPECT_EQ(view(2, 6), 0.0);
  EXPECT_EQ(store(2, 5), 0.7);
  EXPECT_EQ(store(2, 6), 0.1);
  EXPECT_TRUE(store.RowIsSparse(2));
  EXPECT_EQ(store.stats().sparse_write_merges, 2u);
  // Still exactly one touched record: the in-place path is unshared.
  EXPECT_EQ(store.touched_rows().size(), 1u);
}

// ---- The transient-dense watermark ------------------------------------------

TEST(StoreCounters, EpochPeakDenseBytesWatermarksAndResets) {
  const std::size_t n = 8;
  la::ScoreStore store = SparseIdentity(n, 0.4);
  store.Publish();
  EXPECT_EQ(store.stats().epoch_peak_dense_bytes, 0u);

  // A transient densify bumps the watermark...
  SpillWrite(&store, 0, 3, 1.0);
  const std::uint64_t one_row = n * sizeof(double);
  EXPECT_EQ(store.stats().epoch_peak_dense_bytes, one_row);
  // ...and re-sparsifying does not lower it: it records the PEAK.
  ASSERT_TRUE(store.SparsifyRow(0, {}));
  EXPECT_EQ(store.stats().epoch_peak_dense_bytes, one_row);

  // Publish restarts the watermark at the resident footprint.
  store.Publish();
  EXPECT_EQ(store.stats().epoch_peak_dense_bytes, 0u);
}

// Sustained power-law ingest into an all-sparse isolated-node index: every
// batch merges into sparse rows in place, touched rows are re-sparsified
// (the serving tier's publish-time policy) and Publish() closes the epoch,
// so no batch ever holds a dense row, even transiently.
TEST(StoreChurn, PowerLawInsertsIntoIsolatedStoreNeverGoDense) {
  const std::size_t n = 8192;
  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 15;
  auto index = core::DynamicSimRank::CreateIsolated(
      n, options, core::UpdateAlgorithm::kIncSR);
  ASSERT_TRUE(index.ok());
  la::ScoreStore* store = index->mutable_score_store();
  store->set_sparsity({.epsilon = 1e-5,
                       .max_density = 0.5,
                       .error_amplification = 1.0 / (1.0 - options.damping)});
  store->Publish();  // settle the construction epoch: watermark := resident

  graph::CitationModelParams params;
  params.num_nodes = n;
  params.seed = 11;
  auto stream = graph::PreferentialCitation(params);
  ASSERT_TRUE(stream.ok());
  ASSERT_GE(stream->size(), 1024u);
  std::vector<graph::EdgeUpdate> updates;
  for (std::size_t k = 0; k < 1024; ++k) {
    updates.push_back({graph::UpdateKind::kInsert, (*stream)[k].edge.src,
                       (*stream)[k].edge.dst});
  }

  std::uint64_t peak_dense_bytes = 0;
  for (std::size_t start = 0; start < updates.size(); start += 32) {
    const std::vector<graph::EdgeUpdate> batch(updates.begin() + start,
                                               updates.begin() + start + 32);
    ASSERT_TRUE(index->ApplyBatch(batch).ok());
    if (index->AllScoreRowsTouched()) {
      for (std::size_t i = 0; i < n; ++i) store->SparsifyRow(i, {});
    } else {
      for (std::int32_t row : index->TouchedScoreRows()) {
        store->SparsifyRow(static_cast<std::size_t>(row), {});
      }
    }
    peak_dense_bytes =
        std::max(peak_dense_bytes, store->stats().epoch_peak_dense_bytes);
    store->Publish();
  }
  EXPECT_EQ(peak_dense_bytes, 0u);
  EXPECT_EQ(store->stats().rows_spilled_dense, 0u);
  EXPECT_GT(store->stats().sparse_write_merges, 0u);
}

// ---- One write session per row per update ---------------------------------

std::uint64_t Commits(const la::ScoreStore& s) {
  return s.stats().sparse_write_merges + s.stats().rows_spilled_dense;
}

bool HasDuplicate(std::vector<std::int32_t> rows) {
  std::sort(rows.begin(), rows.end());
  return std::adjacent_find(rows.begin(), rows.end()) != rows.end();
}

// Each row an Inc-SR update writes is committed exactly once, however many
// of the K+1 scatters reach it: after a Publish() every commit displaces a
// published block, so it is one merge (or one spill) and one touched
// record, and the two counts agree. Per-scatter commits would merge a row
// once per scatter that reaches it.
TEST(IncSrWriteSessions, EachTouchedRowCommitsOncePerUpdate) {
  const std::size_t n = 256;
  simrank::SimRankOptions options;
  options.damping = 0.6;
  options.iterations = 10;
  core::IncSrEngine engine(options);
  graph::DynamicDiGraph g(n);
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore s = SparseIdentity(n, 1.0 - options.damping);
  auto edges = graph::ErdosRenyiGnm(n, 384, 13);
  ASSERT_TRUE(edges.ok());
  for (const graph::TimestampedEdge& e : *edges) {
    ASSERT_TRUE(engine
                    .ApplyUpdate({graph::UpdateKind::kInsert, e.edge.src,
                                  e.edge.dst},
                                 &g, &q, &s)
                    .ok());
  }

  // One unit update.
  s.Publish();
  std::uint64_t before = Commits(s);
  Rng rng(5);
  auto insert = graph::SampleInsertions(g, 1, &rng);
  ASSERT_TRUE(insert.ok());
  ASSERT_TRUE(engine.ApplyUpdate((*insert)[0], &g, &q, &s).ok());
  EXPECT_GT(s.touched_rows().size(), 1u);
  EXPECT_EQ(Commits(s) - before, s.touched_rows().size());
  EXPECT_FALSE(HasDuplicate(s.touched_rows()));

  // One coalesced row update on the most-cited node: drop one in-edge and
  // add two.
  s.Publish();
  before = Commits(s);
  graph::NodeId target = 0;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(n); ++v) {
    if (g.InDegree(v) > g.InDegree(target)) target = v;
  }
  ASSERT_GT(g.InDegree(target), 0u);
  std::vector<graph::EdgeUpdate> changes = {
      {graph::UpdateKind::kDelete, g.InNeighbors(target)[0], target}};
  for (graph::NodeId src = 0; changes.size() < 3; ++src) {
    if (src != target && !g.HasEdge(src, target)) {
      changes.push_back({graph::UpdateKind::kInsert, src, target});
    }
  }
  ASSERT_TRUE(engine.ApplyRowUpdate(target, changes, &g, &q, &s).ok());
  EXPECT_GT(s.touched_rows().size(), 1u);
  EXPECT_EQ(Commits(s) - before, s.touched_rows().size());
  EXPECT_FALSE(HasDuplicate(s.touched_rows()));
}

// ---- Tiered vs dense-backed service equivalence ----------------------------

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

// Replays the stream with unit batches (Flush per Submit pins batch
// boundaries, hence FP order — sparse_store_test's idiom) and returns the
// final scores plus stats.
struct ServiceRun {
  la::DenseMatrix s;
  service::ServiceStats stats;
};

ServiceRun RunService(const graph::DynamicDiGraph& graph,
                      const std::vector<graph::EdgeUpdate>& stream,
                      core::UpdateAlgorithm algorithm,
                      const service::ServiceOptions& options) {
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 8;
  auto index = core::DynamicSimRank::Create(graph, sr, algorithm);
  EXPECT_TRUE(index.ok());
  auto service =
      service::SimRankService::Create(std::move(index).value(), options);
  EXPECT_TRUE(service.ok());
  for (const graph::EdgeUpdate& u : stream) {
    EXPECT_TRUE((*service)->Submit(u).ok());
    EXPECT_TRUE((*service)->Flush().ok());
  }
  ServiceRun out;
  out.s = (*service)->Snapshot()->scores.ToDense();
  out.stats = (*service)->stats();
  return out;
}

TEST(TieredServiceEquivalence, BitwiseAtEpsilonZeroPerAlgorithm) {
  auto seed = graph::ErdosRenyiGnm(20, 50, 5);
  ASSERT_TRUE(seed.ok());
  auto graph = graph::MaterializeGraph(20, seed.value());
  auto stream = InsertStream(graph, 12, 17);
  for (auto algorithm :
       {core::UpdateAlgorithm::kIncSR, core::UpdateAlgorithm::kIncUSR}) {
    ServiceRun native =
        RunService(graph, stream, algorithm, TieredOptions(0.0));
    // Dense-backed reference: same unit batches, sparsity off entirely.
    service::ServiceOptions dense_options = TieredOptions(0.0);
    dense_options.sparse.enabled = false;
    ServiceRun dense = RunService(graph, stream, algorithm, dense_options);

    EXPECT_TRUE(la::BitwiseEqual(native.s, dense.s));
    EXPECT_EQ(native.stats.sparse_max_error_bound, 0.0);
    // Each run actually took its own write path.
    EXPECT_EQ(dense.stats.rows_sparse, 0u);
    EXPECT_EQ(dense.stats.sparse_write_merges, 0u);
    EXPECT_GT(native.stats.rows_sparse, 0u);
    if (algorithm == core::UpdateAlgorithm::kIncSR) {
      EXPECT_GT(native.stats.sparse_write_merges, 0u);
    }
  }
}

TEST(TieredServiceEquivalence, WithinRecordedBoundAtEpsilonPerAlgorithm) {
  auto seed = graph::ErdosRenyiGnm(40, 60, 9);
  ASSERT_TRUE(seed.ok());
  auto graph = graph::MaterializeGraph(40, seed.value());
  auto stream = InsertStream(graph, 16, 23);
  for (auto algorithm :
       {core::UpdateAlgorithm::kIncSR, core::UpdateAlgorithm::kIncUSR}) {
    // Exact reference: same unit batches, sparsity off entirely.
    service::ServiceOptions dense_options = TieredOptions(1e-4);
    dense_options.sparse.enabled = false;
    ServiceRun exact = RunService(graph, stream, algorithm, dense_options);
    ServiceRun run =
        RunService(graph, stream, algorithm, TieredOptions(1e-4));
    EXPECT_GT(run.stats.rows_sparse, 0u);
    EXPECT_LE(la::MaxAbsDiff(run.s, exact.s),
              run.stats.sparse_max_error_bound + 1e-15);
  }
}

// ---- Concurrency: pinned views vs sparse merge commits ----------------------

TEST(SparseWriteConcurrency, PinnedViewStaysByteStableUnderMergeCommits) {
  const std::size_t n = 24;
  la::ScoreStore store = SparseIdentity(n, 0.4);

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
        // Checksum twice with merge commits racing in between; a commit
        // that mutated shared bytes diverges the sums.
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
  la::RowWriter w;
  for (int epoch = 0; epoch < 200; ++epoch) {
    // Merge-write a band (COW on the first commit per epoch, then the
    // writer-private in-place swap), spill a band to dense through the
    // write path, and demote the rest.
    for (std::size_t i = 0; i < n; ++i) {
      switch ((i + static_cast<std::size_t>(epoch)) % 3) {
        case 0:
          store.BeginWriteRow(i, &w);
          w.Add(rng.NextBounded(n), rng.NextDouble() - 0.5);
          w.Add(rng.NextBounded(n), rng.NextDouble() - 0.5);
          store.CommitWriteRow(&w);
          break;
        case 1:
          SpillWrite(&store, i, rng.NextBounded(n), rng.NextDouble());
          break;
        default:
          store.SparsifyRow(i, {});
      }
    }
    auto next = std::make_shared<const la::ScoreStore::View>(store.Publish());
    std::lock_guard<std::mutex> lock(mu);
    latest = std::move(next);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(checks.load(), 0u);
  EXPECT_GT(store.stats().sparse_write_merges, 0u);
  EXPECT_GT(store.stats().rows_spilled_dense, 0u);
  EXPECT_GT(store.stats().rows_sparsified, 0u);
}

}  // namespace
}  // namespace incsr

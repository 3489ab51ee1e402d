// Parallel update-kernel determinism and Scheduler contract tests.
//
// The kernels' promise (core/inc_sr.h): S is BITWISE identical at every
// thread count — scatter rows are disjoint with per-row serial write
// order, and the expansion kernels merge per-chunk accumulators whose
// chunk geometry depends only on the data shape. These tests drive mixed
// insert/delete streams through every UpdateAlgorithm (plus the
// coalesced batch path) at num_threads ∈ {1, 2, 4, hardware} and memcmp
// the results, both on a never-published score store (every write lands
// in place) and on one that publishes epochs (writes copy-on-write),
// including the epoch-view sequence a serving reader would pin. The Inc-SR
// paths also replay on an all-sparse store (ε = 0) against the
// dense-backed replay. The suite runs in the TSan CI job to prove the
// pool + copy-on-write interplay is race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <tuple>
#include <vector>

#include "common/scheduler.h"
#include "core/coalesced_update.h"
#include "core/inc_sr.h"
#include "core/inc_usr.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "simrank/batch_matrix.h"

namespace incsr {
namespace {

// ---- Scheduler contract ---------------------------------------------------

TEST(Scheduler, ParallelForCoversRangeExactlyOnce) {
  Scheduler pool(4);
  constexpr std::size_t kCount = 1337;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(0, kCount, /*grain=*/16, /*max_threads=*/4,
                   [&hits](std::size_t lo, std::size_t hi) {
                     for (std::size_t k = lo; k < hi; ++k) {
                       hits[k].fetch_add(1, std::memory_order_relaxed);
                     }
                   });
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(hits[k].load(), 1) << "index " << k;
  }
}

TEST(Scheduler, PlanChunksRespectsGrainAndCap) {
  EXPECT_EQ(Scheduler::PlanChunks(0, 16, 8), 0u);
  EXPECT_EQ(Scheduler::PlanChunks(15, 16, 8), 1u);
  EXPECT_EQ(Scheduler::PlanChunks(16, 16, 8), 1u);
  EXPECT_EQ(Scheduler::PlanChunks(17, 16, 8), 2u);
  EXPECT_EQ(Scheduler::PlanChunks(1000, 16, 8), 8u);  // capped
  EXPECT_EQ(Scheduler::PlanChunks(100, 0, 8), 8u);    // grain clamps to 1
}

using ChunkTriple = std::tuple<std::size_t, std::size_t, std::size_t>;

std::vector<ChunkTriple> CollectChunks(Scheduler* pool, std::size_t begin,
                                       std::size_t end, std::size_t chunks,
                                       std::size_t max_threads) {
  std::vector<ChunkTriple> seen;
  std::mutex mu;
  pool->ParallelForChunks(
      begin, end, chunks, max_threads,
      [&seen, &mu](std::size_t c, std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        seen.emplace_back(c, lo, hi);
      });
  std::sort(seen.begin(), seen.end());
  return seen;
}

TEST(Scheduler, ChunkGeometryIndependentOfThreadCount) {
  Scheduler pool(4);
  const auto serial = CollectChunks(&pool, 3, 1003, 7, /*max_threads=*/1);
  for (std::size_t threads : {2u, 4u, 9u}) {
    EXPECT_EQ(CollectChunks(&pool, 3, 1003, 7, threads), serial)
        << "at " << threads << " threads";
  }
}

TEST(Scheduler, NestedRegionsRunInline) {
  Scheduler pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 8, 1, 4, [&pool, &total](std::size_t lo,
                                               std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      // A region submitted from inside a worker must not deadlock.
      pool.ParallelFor(0, 4, 1, 4, [&total](std::size_t a, std::size_t b) {
        total.fetch_add(static_cast<int>(b - a),
                        std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(Scheduler, ResolveNumThreadsPrefersExplicitRequest) {
  EXPECT_EQ(Scheduler::ResolveNumThreads(3), 3u);
  EXPECT_GE(Scheduler::ResolveNumThreads(0), 1u);
}

// ---- Bitwise engine determinism across thread counts -----------------------

struct Fixture {
  graph::DynamicDiGraph base;
  la::DenseMatrix s0;
  std::vector<graph::EdgeUpdate> stream;
  simrank::SimRankOptions options;
};

// Clustered graph (prunable similarity structure) + a mixed
// insert/delete stream. `n` large enough that the dense-expansion
// kernels really chunk (grain 256 ⇒ 3 chunks at n = 520+).
Fixture MakeFixture(std::size_t n, std::size_t inserts, std::size_t deletes,
                    int iterations) {
  Fixture f;
  auto stream = graph::EvolvingLinkage({.num_nodes = n,
                                        .num_edges = 8 * n,
                                        .num_communities = n / 65,
                                        .intra_community_prob = 1.0,
                                        .seed = 29});
  EXPECT_TRUE(stream.ok());
  f.base = graph::MaterializeGraph(n, stream.value());
  f.options.iterations = iterations;
  f.s0 = simrank::BatchMatrix(f.base, f.options);

  Rng rng(41);
  auto ins = graph::SampleInsertions(f.base, inserts, &rng);
  auto del = graph::SampleDeletions(f.base, deletes, &rng);
  EXPECT_TRUE(ins.ok() && del.ok());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < ins->size() || b < del->size()) {  // 3:2 interleave
    for (int k = 0; k < 3 && a < ins->size(); ++k) {
      f.stream.push_back((*ins)[a++]);
    }
    for (int k = 0; k < 2 && b < del->size(); ++k) {
      f.stream.push_back((*del)[b++]);
    }
  }
  return f;
}

std::vector<int> ThreadCounts() {
  return {1, 2, 4, static_cast<int>(Scheduler::ResolveNumThreads(0))};
}

// Result of one replay: the final matrix plus the epoch views a serving
// reader would have pinned along the way (ScoreStore runs only).
struct Replay {
  la::DenseMatrix final_s;
  std::vector<la::DenseMatrix> epochs;
  std::uint64_t sparse_write_merges = 0;
};

enum class Mode { kIncSrUnit, kIncUsrUnit, kCoalescedBatch };

void Drive(const Fixture& f, Mode mode, int threads,
           graph::DynamicDiGraph* g, la::DynamicRowMatrix* q,
           la::ScoreStore* s, const std::function<void()>& after_each) {
  simrank::SimRankOptions options = f.options;
  options.num_threads = threads;
  switch (mode) {
    case Mode::kIncSrUnit: {
      core::IncSrEngine engine(options);
      for (const graph::EdgeUpdate& u : f.stream) {
        ASSERT_TRUE(engine.ApplyUpdate(u, g, q, s).ok());
        after_each();
      }
      break;
    }
    case Mode::kIncUsrUnit: {
      for (const graph::EdgeUpdate& u : f.stream) {
        ASSERT_TRUE(core::IncUsrApplyUpdate(u, options, g, q, s).ok());
        after_each();
      }
      break;
    }
    case Mode::kCoalescedBatch: {
      core::IncSrEngine engine(options);
      for (const core::CoalescedGroup& group :
           core::CoalesceByTarget(f.stream)) {
        ASSERT_TRUE(
            engine.ApplyRowUpdate(group.target, group.changes, g, q, s).ok());
      }
      after_each();
      break;
    }
  }
}

// publish_every = 0 never publishes, so every write lands in place;
// otherwise every write after a publish copies-on-write. A tiered replay
// first sparsifies every row at ε = 0 (lossless), so the kernels write
// through sparse write sessions instead of dense rows.
Replay ReplayStore(const Fixture& f, Mode mode, int threads,
                   std::size_t publish_every, bool tiered = false) {
  graph::DynamicDiGraph g = f.base;
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore s{la::DenseMatrix(f.s0)};
  if (tiered) {
    s.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
    for (std::size_t i = 0; i < s.rows(); ++i) {
      EXPECT_TRUE(s.SparsifyRow(i, {}));
    }
  }
  Replay replay;
  std::size_t applied = 0;
  Drive(f, mode, threads, &g, &q, &s, [&] {
    if (publish_every > 0 && ++applied % publish_every == 0) {
      replay.epochs.push_back(s.Publish().ToDense());
    }
  });
  replay.final_s = s.ToDense();
  replay.sparse_write_merges = s.stats().sparse_write_merges;
  return replay;
}

class ParallelKernelsTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ParallelKernelsTest, InPlaceStoreBitwiseIdenticalAcrossThreadCounts) {
  // Inc-uSR is O(K·n²) per update — keep its fixture smaller.
  const bool usr = GetParam() == Mode::kIncUsrUnit;
  Fixture f = usr ? MakeFixture(130, 9, 6, 6) : MakeFixture(520, 24, 16, 10);
  Replay serial = ReplayStore(f, GetParam(), 1, /*publish_every=*/0);
  for (int threads : ThreadCounts()) {
    Replay run = ReplayStore(f, GetParam(), threads, /*publish_every=*/0);
    EXPECT_TRUE(BitwiseEqual(run.final_s, serial.final_s))
        << "in-place S diverged at " << threads << " threads";
  }
}

TEST_P(ParallelKernelsTest, StoreEpochsByteIdenticalAcrossThreadCounts) {
  const bool usr = GetParam() == Mode::kIncUsrUnit;
  Fixture f = usr ? MakeFixture(130, 9, 6, 6) : MakeFixture(520, 24, 16, 10);
  const std::size_t publish_every = 8;
  Replay serial = ReplayStore(f, GetParam(), 1, publish_every);
  // Copy-on-write must match in-place writes bitwise (same kernels, same
  // write sequence per row).
  EXPECT_TRUE(BitwiseEqual(serial.final_s,
                           ReplayStore(f, GetParam(), 1, 0).final_s));
  for (int threads : ThreadCounts()) {
    Replay run = ReplayStore(f, GetParam(), threads, publish_every);
    EXPECT_TRUE(BitwiseEqual(run.final_s, serial.final_s))
        << "store S diverged at " << threads << " threads";
    ASSERT_EQ(run.epochs.size(), serial.epochs.size());
    for (std::size_t e = 0; e < run.epochs.size(); ++e) {
      EXPECT_TRUE(BitwiseEqual(run.epochs[e], serial.epochs[e]))
          << "epoch " << e << " diverged at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllUpdatePaths, ParallelKernelsTest,
                         ::testing::Values(Mode::kIncSrUnit,
                                           Mode::kIncUsrUnit,
                                           Mode::kCoalescedBatch),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kIncSrUnit: return "IncSR";
                             case Mode::kIncUsrUnit: return "IncUSR";
                             case Mode::kCoalescedBatch: return "Coalesced";
                           }
                           return "Unknown";
                         });

// The Inc-SR paths on an all-sparse store: each row's write session stays
// open across the K+1 parallel scatters of an update, and the final S and
// every pinned epoch view must still match the dense-backed replay
// byte for byte at every thread count.
class ParallelKernelsTieredTest : public ::testing::TestWithParam<Mode> {};

TEST_P(ParallelKernelsTieredTest, EpochsMatchDenseBackedAcrossThreadCounts) {
  Fixture f = MakeFixture(520, 24, 16, 10);
  const std::size_t publish_every = 8;
  Replay dense = ReplayStore(f, GetParam(), 1, publish_every);
  for (int threads : ThreadCounts()) {
    Replay run = ReplayStore(f, GetParam(), threads, publish_every,
                             /*tiered=*/true);
    EXPECT_GT(run.sparse_write_merges, 0u);
    EXPECT_TRUE(BitwiseEqual(run.final_s, dense.final_s))
        << "tiered S diverged at " << threads << " threads";
    ASSERT_EQ(run.epochs.size(), dense.epochs.size());
    for (std::size_t e = 0; e < run.epochs.size(); ++e) {
      EXPECT_TRUE(BitwiseEqual(run.epochs[e], dense.epochs[e]))
          << "tiered epoch " << e << " diverged at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(IncSrPaths, ParallelKernelsTieredTest,
                         ::testing::Values(Mode::kIncSrUnit,
                                           Mode::kCoalescedBatch),
                         [](const auto& info) {
                           return info.param == Mode::kIncSrUnit
                                      ? "IncSR"
                                      : "Coalesced";
                         });

// A view pinned BEFORE parallel updates must stay byte-stable: the
// scatter pre-materializes every COW clone serially before handing rows
// to the pool, so no worker ever writes into a shard a view still
// references.
TEST(ParallelKernelsCow, PinnedViewSurvivesParallelUpdates) {
  Fixture f = MakeFixture(520, 24, 16, 10);
  graph::DynamicDiGraph g = f.base;
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore s{la::DenseMatrix(f.s0)};
  la::ScoreStore::View pinned = s.Publish();

  simrank::SimRankOptions options = f.options;
  options.num_threads = 4;
  core::IncSrEngine engine(options);
  for (const graph::EdgeUpdate& u : f.stream) {
    ASSERT_TRUE(engine.ApplyUpdate(u, &g, &q, &s).ok());
  }
  EXPECT_EQ(la::MaxAbsDiff(pinned, f.s0), 0.0);
  EXPECT_TRUE(BitwiseEqual(pinned.ToDense(), f.s0));
}

}  // namespace
}  // namespace incsr

// Tests for the common substrate: Status/Result, memory tracking, RNG
// determinism and distribution sanity, timers, the paged copy-on-write
// table.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>

#include "common/cow_table.h"
#include "common/memory.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"
#include "la/vector.h"

namespace incsr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("edge (1, 2)");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "edge (1, 2)");
  EXPECT_EQ(s.ToString(), "NotFound: edge (1, 2)");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kIoError, StatusCode::kNotSupported,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

Status Inner() { return Status::IoError("disk"); }
Status Outer() {
  INCSR_RETURN_IF_ERROR(Inner());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Outer().code(), StatusCode::kIoError);
}

TEST(MemoryTest, TrackedAllocationMovesCounters) {
  auto& counter = MemoryCounter::Global();
  std::int64_t before = counter.current_bytes();
  {
    la::Vector v(1 << 16);  // 512 KB through the tracked allocator
    EXPECT_GE(counter.current_bytes(), before + (1 << 16) * 8);
  }
  EXPECT_LE(counter.current_bytes(), before + 1024);
}

TEST(MemoryTest, ScopeMeasuresPeakDelta) {
  MemoryScope scope;
  { la::Vector v(1 << 14); }
  std::int64_t peak = scope.PeakDeltaBytes();
  EXPECT_GE(peak, (1 << 14) * 8);
}

TEST(MemoryTest, HumanBytesFormats) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
  EXPECT_EQ(HumanBytes(int64_t{5} * 1024 * 1024 * 1024), "5.0 GB");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  Rng c(124);
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) differs |= (a2.NextU64() != c.NextU64());
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(8);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= (v == -3);
    hit_hi |= (v == 3);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.NextBernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / trials, 1.0, 0.05);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  double elapsed = timer.ElapsedSeconds();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_DOUBLE_EQ(timer.ElapsedMillis() >= elapsed * 1e3 ? 1.0 : 0.0, 1.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

// ---- CowTable ---------------------------------------------------------------

using IntTable = CowTable<int>;
constexpr std::size_t kPage = IntTable::kPageSize;

std::shared_ptr<const int> Int(int v) { return std::make_shared<int>(v); }

// A table of n owned slots holding 0..n-1, built before any publish.
IntTable Iota(std::size_t n) {
  IntTable table;
  for (std::size_t i = 0; i < n; ++i) table.Append(Int(static_cast<int>(i)));
  return table;
}

TEST(CowTableTest, ClonesEachPageOncePerGeneration) {
  IntTable table = Iota(2 * kPage + 10);  // three pages
  // Writes before the first publish land in place: nothing to clone.
  table.Set(5, Int(-5));
  EXPECT_EQ(table.pages_cloned(), 0u);

  const IntTable::Snapshot pinned = table.Publish();
  table.Set(0, Int(100));
  table.Set(1, Int(101));
  table.Set(kPage - 1, Int(102));  // page 0 again
  table.Set(kPage + 3, Int(103));  // page 1
  EXPECT_EQ(table.pages_cloned(), 2u);
  table.Set(0, Int(104));  // already cloned this generation
  EXPECT_EQ(table.pages_cloned(), 2u);

  table.Publish();  // a new generation: every page clones once more
  table.Set(0, Int(105));
  table.Set(kPage + 4, Int(106));
  table.Set(2 * kPage, Int(107));
  EXPECT_EQ(table.pages_cloned(), 5u);

  // The pinned snapshot never saw any of it.
  EXPECT_EQ(pinned[0], 0);
  EXPECT_EQ(pinned[5], -5);
  EXPECT_EQ(pinned[kPage + 3], static_cast<int>(kPage + 3));
  EXPECT_EQ(pinned[2 * kPage], static_cast<int>(2 * kPage));
  EXPECT_EQ(table[0], 105);
  EXPECT_EQ(table[kPage + 3], 103);
}

TEST(CowTableTest, OwnedMeansInstalledSinceTheLastPublish) {
  IntTable table = Iota(kPage + 1);
  table.Resize(kPage + 3, Int(7));  // fill slots may be shared: not owned
  EXPECT_TRUE(table.owned(0));
  EXPECT_TRUE(table.owned(kPage));
  EXPECT_FALSE(table.owned(kPage + 1));
  EXPECT_FALSE(table.owned(kPage + 2));

  const IntTable::Snapshot pinned = table.Publish();
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_FALSE(table.owned(i)) << i;
  }
  table.Set(3, Int(30));
  EXPECT_TRUE(table.owned(3));
  EXPECT_FALSE(table.owned(4));  // same cloned page, not installed
  // An owned slot is the writer's alone: mutating it in place leaves the
  // snapshot's value alone.
  *table.MutableSlot(3) = 31;
  EXPECT_EQ(table[3], 31);
  EXPECT_EQ(pinned[3], 3);
  EXPECT_EQ(pinned.slot(4), table.slot(4));  // untouched slots are shared
}

TEST(CowTableTest, CopyMakesBothSidesClone) {
  IntTable source = Iota(kPage + 5);
  IntTable copy = source;
  for (std::size_t i = 0; i < source.size(); ++i) {
    EXPECT_FALSE(source.owned(i)) << i;
    EXPECT_FALSE(copy.owned(i)) << i;
  }
  source.Set(1, Int(-1));
  copy.Set(2, Int(-2));
  copy.Set(kPage + 1, Int(-3));
  EXPECT_EQ(source.pages_cloned(), 1u);
  EXPECT_EQ(copy.pages_cloned(), 2u);
  EXPECT_EQ(source[1], -1);
  EXPECT_EQ(source[2], 2);
  EXPECT_EQ(source[kPage + 1], static_cast<int>(kPage + 1));
  EXPECT_EQ(copy[1], 1);
  EXPECT_EQ(copy[2], -2);
  EXPECT_EQ(copy[kPage + 1], -3);

  // Copy assignment follows the same rule.
  IntTable assigned;
  assigned = copy;
  EXPECT_FALSE(copy.owned(2));
  EXPECT_FALSE(assigned.owned(2));
  assigned.Set(2, Int(-4));
  EXPECT_EQ(copy[2], -2);
}

TEST(CowTableTest, AppendAndResizeAcrossAPageBoundary) {
  IntTable table = Iota(kPage - 1);
  const IntTable::Snapshot before = table.Publish();
  table.Append(Int(1000));  // last slot of page 0
  table.Append(Int(1001));  // first slot of page 1
  ASSERT_EQ(table.size(), kPage + 1);
  EXPECT_EQ(table[kPage - 1], 1000);
  EXPECT_EQ(table[kPage], 1001);
  EXPECT_TRUE(table.owned(kPage - 1));
  EXPECT_TRUE(table.owned(kPage));
  EXPECT_EQ(before.size(), kPage - 1);

  const IntTable::Snapshot grown = table.Publish();
  table.Resize(kPage - 2, nullptr);  // shrink back across the boundary
  ASSERT_EQ(table.size(), kPage - 2);
  table.Resize(kPage + 2, Int(9));
  for (std::size_t i = kPage - 2; i < kPage + 2; ++i) {
    EXPECT_EQ(table[i], 9) << i;
    EXPECT_FALSE(table.owned(i)) << i;
  }
  EXPECT_EQ(table[kPage - 3], static_cast<int>(kPage - 3));
  // Neither snapshot moved.
  ASSERT_EQ(grown.size(), kPage + 1);
  EXPECT_EQ(grown[kPage - 2], static_cast<int>(kPage - 2));
  EXPECT_EQ(grown[kPage - 1], 1000);
  EXPECT_EQ(grown[kPage], 1001);
  EXPECT_EQ(before[kPage - 2], static_cast<int>(kPage - 2));
}

TEST(CowTableTest, PinnedSnapshotStaysByteStableWhileTheWriterRewrites) {
  const std::size_t n = 3 * kPage + 17;
  IntTable table = Iota(n);
  const IntTable::Snapshot pinned = table.Publish();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> mismatches{0};
  // The thread start is the synchronizing handoff of `pinned`.
  std::thread reader([&] {
    do {
      for (std::size_t i = 0; i < pinned.size(); ++i) {
        if (pinned[i] != static_cast<int>(i)) mismatches.fetch_add(1);
      }
    } while (!done.load());
  });
  for (int round = 1; round <= 40; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const int value = -round * static_cast<int>(i);
      if (table.owned(i)) {
        *table.MutableSlot(i) = value;
      } else {
        table.Set(i, Int(value));
      }
      *table.MutableSlot(i) = value - 1;  // owned now: in place
    }
    if (round % 2 == 0) table.Publish();  // a snapshot nobody keeps
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(pinned.size(), n);
  EXPECT_EQ(table[n - 1], -40 * static_cast<int>(n - 1) - 1);
}

}  // namespace
}  // namespace incsr

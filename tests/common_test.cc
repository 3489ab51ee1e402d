// Tests for the common substrate: Status/Result, memory tracking, RNG
// determinism and distribution sanity, timers, the paged copy-on-write
// table, the command-line flag table.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/cow_table.h"
#include "common/flags.h"
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

// ---- Flag table -------------------------------------------------------------

enum class Mode { kBlock, kReject };

// One row of every value kind, each with a range to step past.
struct FlagTargets {
  std::string input;
  std::size_t count = 5;
  std::size_t size = 0;
  int integer = 7;
  double real = 1.0;
  double positive = 0.5;
  double any = 0.0;
  std::string text;
  bool on = false;
  Mode mode = Mode::kBlock;
  std::vector<std::size_t> counts = {4, 8};
  std::vector<int> ints;
  int a = 0;
  int b = 0;
  bool then_ran = false;
};

FlagTable MakeFlagTable(FlagTargets* t) {
  FlagTable table("prog");
  table.Positional("input", "an input file", &t->input)
      .Int("--count", "N", "a count", &t->count, std::size_t{2},
           std::size_t{100})
      .Int("--size", "N", "a count over the whole range", &t->size)
      .Int("--int", "I", "an int", &t->integer, 0, 50)
      .Double("--real", "X", "a double", &t->real, 0.5, 2.5)
      .Double("--positive", "X", "a positive double", &t->positive, 0.0, 1.0,
              /*exclusive_min=*/true)
      .Then([t] { t->then_ran = true; })
      .Double("--any", "X", "any finite double", &t->any)
      .String("--text", "S", "a string", &t->text)
      .Switch("--on", "a switch", &t->on)
      .Choice("--mode", "a choice", &t->mode,
              {{"block", Mode::kBlock}, {"reject", Mode::kReject}})
      .IntList("--counts", "N,...", "a count list", &t->counts,
               std::size_t{2}, std::size_t{100})
      .IntList("--ints", "I,...", "an int list", &t->ints, 1, 50)
      .IntPair("--pair", "A B", "two ints", &t->a, &t->b, 0, 10);
  return table;
}

// Parses `words` as the arguments after a program name.
Status ParseWords(FlagTable& table, std::vector<std::string> words) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (std::string& word : words) argv.push_back(word.data());
  return table.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagTableTest, EveryMalformedValueIsInvalidArgument) {
  const std::vector<std::string> malformed = {
      "abc", "1x", "", "-1", "99999999999999999999", "nan", "inf"};
  std::vector<std::vector<std::string>> cases;
  for (const char* flag : {"--count", "--size", "--int", "--real",
                           "--positive", "--counts", "--ints"}) {
    for (const std::string& bad : malformed) cases.push_back({flag, bad});
  }
  // An unbounded double still needs a finite number.
  for (const char* bad : {"abc", "1x", "", "nan", "inf", "-inf", "1e999"}) {
    cases.push_back({"--any", bad});
  }
  for (const std::string& bad : malformed) {
    cases.push_back({"--pair", bad, "1"});
    cases.push_back({"--pair", "1", bad});
  }
  // A value just past each end of its range.
  for (std::vector<std::string> past : std::vector<std::vector<std::string>>{
           {"--count", "1"},
           {"--count", "101"},
           {"--int", "51"},
           {"--real", "0.49999999999999994"},
           {"--real", "2.5000000000000004"},
           {"--positive", "0"},
           {"--positive", "1.0000000000000002"},
           {"--counts", "1"},
           {"--counts", "101"},
           {"--counts", "2,101"},
           {"--ints", "0"},
           {"--ints", "51"},
           {"--pair", "0", "11"},
           // List items and choices are whole words too.
           {"--counts", "2,1x"},
           {"--counts", "2,,3"},
           {"--counts", "2,"},
           {"--mode", "abc"},
           {"--mode", ""},
           {"--mode", "Block"},
       }) {
    cases.push_back(past);
  }
  // A missing value, for every row that takes one.
  for (const char* flag : {"--count", "--size", "--int", "--real",
                           "--positive", "--any", "--text", "--mode",
                           "--counts", "--ints", "--pair"}) {
    cases.push_back({flag});
  }
  cases.push_back({"--pair", "1"});
  // Unknown flags.
  cases.push_back({"--nope"});
  cases.push_back({"--count=5"});
  cases.push_back({"--on", "1"});  // a switch takes no value

  for (std::vector<std::string> words : cases) {
    FlagTargets targets;
    FlagTable table = MakeFlagTable(&targets);
    std::string shown;
    for (const std::string& word : words) shown += " '" + word + "'";
    words.insert(words.begin(), "in.txt");
    const Status status = ParseWords(table, words);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << shown;
  }
}

TEST(FlagTableTest, PositionalsAreRequiredAndCounted) {
  for (std::vector<std::string> words :
       std::vector<std::vector<std::string>>{{}, {"--on"}, {"a", "b"}}) {
    FlagTargets targets;
    FlagTable table = MakeFlagTable(&targets);
    EXPECT_EQ(ParseWords(table, words).code(), StatusCode::kInvalidArgument);
  }
}

TEST(FlagTableTest, ValidValuesIncludingRangeEndsLand) {
  struct Case {
    std::vector<std::string> words;
    std::function<bool(const FlagTargets&)> landed;
  };
  const std::vector<Case> cases = {
      {{"--count", "2"}, [](const auto& t) { return t.count == 2; }},
      {{"--count", "100"}, [](const auto& t) { return t.count == 100; }},
      {{"--size", "9223372036854775807"},
       [](const auto& t) { return t.size == 9223372036854775807u; }},
      {{"--int", "0"}, [](const auto& t) { return t.integer == 0; }},
      {{"--int", "50"}, [](const auto& t) { return t.integer == 50; }},
      {{"--real", "0.5"}, [](const auto& t) { return t.real == 0.5; }},
      {{"--real", "2.5"}, [](const auto& t) { return t.real == 2.5; }},
      {{"--positive", "1e-300"},
       [](const auto& t) { return t.positive == 1e-300 && t.then_ran; }},
      {{"--positive", "1"}, [](const auto& t) { return t.positive == 1.0; }},
      {{"--any", "-1e300"}, [](const auto& t) { return t.any == -1e300; }},
      {{"--text", "a b"}, [](const auto& t) { return t.text == "a b"; }},
      {{"--on"}, [](const auto& t) { return t.on; }},
      {{"--mode", "reject"},
       [](const auto& t) { return t.mode == Mode::kReject; }},
      {{"--mode", "block"},
       [](const auto& t) { return t.mode == Mode::kBlock; }},
      {{"--counts", "2,100"},
       [](const auto& t) {
         return t.counts == std::vector<std::size_t>{2, 100};
       }},
      {{"--ints", "1,50,7"},
       [](const auto& t) { return t.ints == std::vector<int>{1, 50, 7}; }},
      {{"--pair", "0", "10"},
       [](const auto& t) { return t.a == 0 && t.b == 10; }},
      // A repeated flag keeps its last value.
      {{"--count", "3", "--count", "4"},
       [](const auto& t) { return t.count == 4; }},
  };
  for (const Case& c : cases) {
    FlagTargets targets;
    FlagTable table = MakeFlagTable(&targets);
    std::vector<std::string> words = c.words;
    words.insert(words.begin(), "in.txt");
    ASSERT_TRUE(ParseWords(table, words).ok()) << c.words[0];
    EXPECT_TRUE(c.landed(targets)) << c.words[0];
    EXPECT_EQ(targets.input, "in.txt");
  }
}

TEST(FlagTableTest, UntouchedTargetsKeepTheirDefaults) {
  FlagTargets targets;
  FlagTable table = MakeFlagTable(&targets);
  ASSERT_TRUE(ParseWords(table, {"in.txt"}).ok());
  EXPECT_EQ(targets.count, 5u);
  EXPECT_EQ(targets.counts, (std::vector<std::size_t>{4, 8}));
  EXPECT_FALSE(targets.on);
  EXPECT_FALSE(targets.then_ran);
}

TEST(FlagTableTest, HelpListsEveryRowAndStopsParsing) {
  FlagTargets targets;
  FlagTable table = MakeFlagTable(&targets);
  const std::string usage = table.Usage();
  for (const char* row :
       {"<input>", "--count N", "--size N", "--int I", "--real X",
        "--positive X", "--any X", "--text S", "--on", "--mode block|reject", "--counts N,...",
        "--ints I,...", "--pair A B", "--help"}) {
    EXPECT_NE(usage.find(row), std::string::npos) << row;
  }
  // Defaults and ranges come from the rows.
  EXPECT_NE(usage.find("a count (default 5; in [2, 100])"), std::string::npos);
  EXPECT_NE(usage.find("(default 0.5; in (0, 1])"), std::string::npos);
  EXPECT_NE(usage.find("(default 4,8; in [2, 100])"), std::string::npos);
  // --help needs no positional and ends the parse before later words.
  ASSERT_TRUE(ParseWords(table, {"--help", "--nope"}).ok());
  EXPECT_TRUE(table.help_requested());
}

TEST(FlagTableDeathTest, ParseOrExitExitsZeroOnHelpAndTwoOnAnError) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto parse_or_exit = [](std::vector<std::string> words,
                                const std::function<Status()>& check) {
    FlagTargets targets;
    FlagTable table = MakeFlagTable(&targets);
    std::vector<char*> argv = {const_cast<char*>("prog")};
    for (std::string& word : words) argv.push_back(word.data());
    table.ParseOrExit(static_cast<int>(argv.size()), argv.data(), 1, check);
    std::exit(7);  // parsed: the caller goes on to work
  };
  EXPECT_EXIT(parse_or_exit({"--help"}, nullptr),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse_or_exit({"in.txt", "--count", "1x"}, nullptr),
              ::testing::ExitedWithCode(2), "InvalidArgument: flag --count");
  EXPECT_EXIT(parse_or_exit({"in.txt"},
                            [] { return Status::InvalidArgument("cross"); }),
              ::testing::ExitedWithCode(2), "InvalidArgument: cross");
  EXPECT_EXIT(parse_or_exit({"in.txt"}, nullptr),
              ::testing::ExitedWithCode(7), "");
}

}  // namespace
}  // namespace incsr

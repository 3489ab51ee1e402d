// snapshot_publish — microbenchmark for the epoch-publish path: full
// O(n²) matrix copy (the PR 1 serving design) vs the copy-on-write
// ScoreStore's pointer-table bump plus per-touched-row clones. For each
// matrix size and touched-row workload it simulates an apply/publish
// cycle: write into `touched` distinct rows, then publish an immutable
// snapshot a reader could pin.
//
// The headline shape: full-copy cost grows with n² regardless of the
// affected area, while COW publish cost is O(touched rows) — near-flat
// in n for a fixed touched count, and proportional to the touched
// fraction otherwise (the paper's affected-area locality turned into
// serving throughput).
//
// Usage: bench_snapshot_publish [--sizes 1000,4000,16000]
//          [--touched 64] [--fractions 0.01,0.1,1.0] [--epochs E]
//          [--json PATH]
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"
#include "la/score_store.h"

namespace {

using namespace incsr;

struct Config {
  std::vector<std::size_t> sizes = {1000, 4000, 16000};
  std::size_t touched = 64;                        // fixed-count series
  std::vector<double> fractions = {0.01, 0.10, 1.0};  // fraction-of-n series
  std::size_t epochs = 5;
  std::string json_path;  // when set, emit a BENCH json trajectory file
};

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(csv.substr(start));
      break;
    }
    parts.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

la::DenseMatrix FillMatrix(std::size_t n) {
  Rng rng(1234);
  la::DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double* row = m.RowPtr(i);
    for (std::size_t j = 0; j < n; ++j) row[j] = rng.NextDouble();
  }
  return m;
}

// Distinct pseudo-random rows a batch "touches" (stable per epoch seed).
std::vector<std::size_t> TouchedRows(std::size_t n, std::size_t count,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::size_t> rows;
  rows.reserve(count);
  while (rows.size() < count) {
    const auto r = static_cast<std::size_t>(rng.NextBounded(n));
    if (!seen[r]) {
      seen[r] = 1;
      rows.push_back(r);
    }
  }
  return rows;
}

struct PublishCost {
  double seconds_per_epoch = 0.0;
  std::uint64_t rows_copied = 0;
  std::uint64_t bytes_copied = 0;
};

// The PR 1 design: every epoch deep-copies the whole matrix into the
// snapshot (writes first touch the live matrix in place).
PublishCost FullCopyPublish(la::DenseMatrix* live, std::size_t touched,
                            std::size_t epochs) {
  const std::size_t n = live->rows();
  PublishCost cost;
  WallTimer timer;
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t r : TouchedRows(n, touched, 77 + e)) {
      live->RowPtr(r)[e % n] += 1e-12;
    }
    la::DenseMatrix snapshot = *live;  // the O(n²) publish
    // Keep the copy observable so the optimizer cannot drop it.
    if (snapshot(0, 0) == -1.0) std::abort();
    cost.rows_copied += n;
    cost.bytes_copied += static_cast<std::uint64_t>(n) * n * sizeof(double);
  }
  cost.seconds_per_epoch =
      timer.ElapsedSeconds() / static_cast<double>(epochs);
  return cost;
}

// The COW design: writes clone touched rows, publish bumps the pointer
// table; a pinned view per epoch plays the role of a reader.
PublishCost CowPublish(la::ScoreStore* store, std::size_t touched,
                       std::size_t epochs) {
  const std::size_t n = store->rows();
  PublishCost cost;
  la::ScoreStore::View pinned = store->Publish();
  const la::ScoreStoreStats before = store->stats();
  la::RowWriter writer;
  WallTimer timer;
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t r : TouchedRows(n, touched, 77 + e)) {
      store->BeginWriteRow(r, &writer);
      writer.Add(e % n, 1e-12);
      store->CommitWriteRow(&writer);
    }
    pinned = store->Publish();
    if (pinned(0, 0) == -1.0) std::abort();
  }
  cost.seconds_per_epoch =
      timer.ElapsedSeconds() / static_cast<double>(epochs);
  cost.rows_copied = store->stats().rows_copied - before.rows_copied;
  cost.bytes_copied = store->stats().bytes_copied - before.bytes_copied;
  return cost;
}

void RunSize(const Config& config, std::size_t n,
             bench::JsonObject* json) {
  std::printf("\nn = %zu (S is %.1f MB)\n", n,
              static_cast<double>(n) * n * sizeof(double) / 1e6);
  std::printf("  %-22s %14s %14s %9s %14s\n", "touched rows / epoch",
              "full-copy", "cow-publish", "speedup", "cow rows/epoch");

  std::vector<std::size_t> workloads;
  workloads.push_back(std::min(config.touched, n));
  for (double f : config.fractions) {
    const auto rows = static_cast<std::size_t>(f * static_cast<double>(n));
    workloads.push_back(std::min(n, std::max<std::size_t>(1, rows)));
  }

  for (std::size_t touched : workloads) {
    la::DenseMatrix live = FillMatrix(n);
    PublishCost full = FullCopyPublish(&live, touched, config.epochs);

    la::ScoreStore store(FillMatrix(n));
    PublishCost cow = CowPublish(&store, touched, config.epochs);

    const double speedup = cow.seconds_per_epoch > 0.0
                               ? full.seconds_per_epoch / cow.seconds_per_epoch
                               : 0.0;
    const double cow_rows_per_epoch = static_cast<double>(cow.rows_copied) /
                                      static_cast<double>(config.epochs);
    std::printf("  %-22zu %11.3f ms %11.3f ms %8.1fx %14.0f\n", touched,
                full.seconds_per_epoch * 1e3, cow.seconds_per_epoch * 1e3,
                speedup, cow_rows_per_epoch);
    if (json != nullptr) {
      json->AddObject("results")
          ->Set("nodes", n)
          .Set("touched_rows", touched)
          .Set("full_copy_ms_per_epoch", full.seconds_per_epoch * 1e3)
          .Set("cow_ms_per_epoch", cow.seconds_per_epoch * 1e3)
          .Set("speedup", speedup)
          .Set("cow_rows_per_epoch", cow_rows_per_epoch);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::string {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--sizes") == 0) {
      config.sizes.clear();
      for (const std::string& part : SplitCommas(next())) {
        config.sizes.push_back(
            static_cast<std::size_t>(std::atoll(part.c_str())));
      }
    } else if (std::strcmp(argv[i], "--touched") == 0) {
      config.touched = static_cast<std::size_t>(std::atoll(next().c_str()));
    } else if (std::strcmp(argv[i], "--fractions") == 0) {
      config.fractions.clear();
      for (const std::string& part : SplitCommas(next())) {
        config.fractions.push_back(std::atof(part.c_str()));
      }
    } else if (std::strcmp(argv[i], "--epochs") == 0) {
      config.epochs = static_cast<std::size_t>(std::atoll(next().c_str()));
      // Every per-epoch ratio below divides by this; 0 would emit
      // NaN/inf into the JSON trajectory.
      INCSR_CHECK(config.epochs >= 1, "--epochs needs >= 1");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  bench::PrintHeader(
      "snapshot_publish — full-copy vs copy-on-write epoch publish");
  std::printf(
      "per epoch: touch T distinct rows, then publish an immutable "
      "snapshot (%zu epochs averaged)\n",
      config.epochs);
  bench::JsonObject root;
  root.Set("bench", "snapshot_publish").Set("epochs", config.epochs);
  bench::JsonObject* json =
      config.json_path.empty() ? nullptr : &root;
  for (std::size_t n : config.sizes) RunSize(config, n, json);
  if (json != nullptr) {
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

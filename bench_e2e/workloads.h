// The benchmark's workloads: inputs generated from a seed, set-up, the
// open-loop timed run with its closed burst, the output checks, and the
// traced per-layer replay. See README.md for what each workload is for.
#ifndef INCSR_BENCH_E2E_WORKLOADS_H_
#define INCSR_BENCH_E2E_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace incsr::e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the contract's result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

enum class StoreKind {
  /// CreateIsolated over n nodes (sparse (1−C)·I rows) warmed with a
  /// citation prefix; the service keeps rows in the sparse tier at ε = 0.
  kSparse,
  /// Batch DynamicSimRank::Create over 60 % of an n-node citation stream;
  /// dense rows and complete top-k index entries.
  kDense,
};

struct WorkloadSpec {
  const char* name;
  StoreKind store;
  std::size_t nodes;
  /// Open-loop single-update Submits per second during the window (0: none).
  double write_rate;
  /// Reader generators (threads, or connections when `wire`), each issuing
  /// TopKFor(k = 10) at `read_rate` per second with Zipf(1.0) nodes.
  std::size_t readers;
  double read_rate;
  /// Readers and writer reach the service through IncSrServer on loopback.
  bool wire;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// One run of a workload in this process. trace = false reports the
/// end-to-end metrics (set-up repeated three times, median reported);
/// trace = true sets up once and reports the per-layer metrics instead.
/// Aborts on a failure of the program under test that leaves nothing to
/// measure; output-check failures come back as correct = false.
RunResult RunWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds, bool trace);

/// Core-only replay of one citation prefix on isolated-node stores of each
/// size. correct = false unless the rows written per update are identical
/// at every size (a fixed affected area).
RunResult RunSweep(const std::vector<std::size_t>& sizes, std::uint64_t seed);

}  // namespace incsr::e2e

#endif  // INCSR_BENCH_E2E_WORKLOADS_H_

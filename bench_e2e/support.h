// Measurement plumbing for the end-to-end benchmark: a monotonic clock,
// open-loop pacing, quantiles, thread placement and process memory readings.
#ifndef INCSR_BENCH_E2E_SUPPORT_H_
#define INCSR_BENCH_E2E_SUPPORT_H_

#include <dirent.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace incsr::e2e {

/// CLOCK_MONOTONIC in ns: the clock WaitUntil sleeps on.
inline std::uint64_t NowNs() {
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<std::uint64_t>(now.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(now.tv_nsec);
}

/// Returns at `deadline_ns` (a NowNs() time): sleeps to just short of it,
/// then spins, because an overshoot would be charged to the request as
/// latency. Call SetPreciseTimers() on the waiting thread first.
inline void WaitUntil(std::uint64_t deadline_ns) {
  constexpr std::uint64_t kSpinNs = 15'000;
  if (NowNs() + kSpinNs < deadline_ns) {
    const std::uint64_t wake = deadline_ns - kSpinNs;
    const timespec at{static_cast<time_t>(wake / 1'000'000'000),
                      static_cast<long>(wake % 1'000'000'000)};
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr);
  }
  while (NowNs() < deadline_ns) {
  }
}

/// Drops the calling thread's timer slack from the default 50 µs to 1 ns,
/// so a sleep wakes within a few µs of its deadline and a generator can
/// sleep between requests instead of spinning a core it shares with the
/// program under test.
inline void SetPreciseTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// Per-operation samples of one generator (or several, merged).
struct LoadSamples {
  /// Completion minus INTENDED send time: a stall delays every request
  /// queued behind it, and that wait is counted (the coordinated-omission
  /// correction).
  std::vector<double> latency_ns;
  /// Completion minus actual send time: what a closed-loop client sees.
  std::vector<double> service_ns;
  /// The generator's own lateness: actual send minus the later of the
  /// intended time and the previous completion. Backlog the system
  /// imposed is not lateness; a slow wake-up is.
  std::vector<double> late_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Sizes the arrays for `count` operations and touches every page, so
  /// filling them during a run does not show in the process's memory.
  void Prepare(std::size_t count) {
    latency_ns.assign(count, 0.0);
    service_ns.assign(count, 0.0);
    late_ns.assign(count, 0.0);
  }

  void Merge(const LoadSamples& other) {
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
    service_ns.insert(service_ns.end(), other.service_ns.begin(),
                      other.service_ns.end());
    late_ns.insert(late_ns.end(), other.late_ns.begin(), other.late_ns.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

inline std::size_t OpenLoopCount(double rate, double seconds) {
  return static_cast<std::size_t>(seconds * rate);
}

/// One open-loop generator: op(i, intended_ns) -> bool ok is due at
/// start_ns + i / rate for each of the OpenLoopCount(rate, seconds) due
/// times in the window. Each call blocks this generator, so a slow call
/// makes the following sends late; their latency still counts from when
/// they were due. Fills a fresh (or Prepare()d) `out`.
template <typename Op>
void RunOpenLoop(std::uint64_t start_ns, double rate, double seconds, Op&& op,
                 LoadSamples* out) {
  const double period_ns = 1e9 / rate;
  const std::size_t count = OpenLoopCount(rate, seconds);
  if (out->latency_ns.size() != count) out->Prepare(count);
  SetPreciseTimers();
  std::uint64_t prev_done = start_ns;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t due =
        start_ns +
        static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
    WaitUntil(due);
    const std::uint64_t sent = NowNs();
    const bool ok = op(i, due);
    const std::uint64_t done = NowNs();
    const std::uint64_t ready = std::max(due, prev_done);
    out->late_ns[i] = sent > ready ? static_cast<double>(sent - ready) : 0.0;
    out->latency_ns[i] = static_cast<double>(done - due);
    out->service_ns[i] = static_cast<double>(done - sent);
    ++out->attempted;
    if (!ok) ++out->failed;
    prev_done = done;
  }
}

/// Quantile q in [0, 1] of `values` by linear interpolation between order
/// statistics (sorts in place). 0 for an empty sample.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  if (!std::is_sorted(values->begin(), values->end())) {
    std::sort(values->begin(), values->end());
  }
  const double rank = q * static_cast<double>(values->size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// Moves every thread of this process onto a CPU of its own, round-robin in
/// creation order, then lets it float again. A new thread starts on its
/// creator's CPU, and some guest kernels (a 4-vCPU KVM guest among them)
/// take about 1.5 s of sustained load to spread such threads; until then
/// four threads ran at one core's speed. A thread left on a CPU stays there
/// when it sleeps and wakes, so one spread before each measured phase is
/// enough. Best effort: failures are ignored.
inline void SpreadThreads() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size() && !cpus.empty(); ++i) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[i % cpus.size()], &one);
    sched_setaffinity(tids[i], sizeof(one), &one);
    sched_setaffinity(tids[i], sizeof(allowed), &allowed);
  }
}

/// A "VmRSS:" / "VmHWM:" line of /proc/self/status, in MB (0 if absent).
inline double ProcStatusMb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtod(line + key_len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace incsr::e2e

#endif  // INCSR_BENCH_E2E_SUPPORT_H_

// Streaming log-bucketed latency histogram (docs/tracing.md). The shape
// is HdrHistogram-lite: 4 sub-buckets per power-of-two octave, 256
// buckets total, covering the full u64 range with <= 25% relative bucket
// width — percentiles interpolated inside a bucket are accurate to a few
// percent at every scale from nanoseconds to minutes, with a fixed 2 KiB
// footprint and no allocation.
//
// Histogram is the live, thread-safe recorder: Record() is one relaxed
// fetch_add on the bucket plus relaxed min/max updates — safe from any
// number of threads, cheap enough for the serve path. HistogramSnapshot
// is the plain-data copy that travels: through ServiceStats, the shard
// aggregator's field-wise `+=` (histograms MERGE by bucket-wise addition,
// which is exact — no resampling error), and the StatsResponse field
// list (src/net/wire.cc encodes the non-zero buckets sparsely).
#ifndef INCSR_OBS_HISTOGRAM_H_
#define INCSR_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace incsr::obs {

/// Number of histogram buckets; bucket indices fit a u8 on the wire.
inline constexpr std::size_t kHistogramBuckets = 256;

/// Maps a value to its bucket. Values 0..7 get exact unit buckets; above
/// that, each power-of-two octave splits into 4 sub-buckets keyed by the
/// two bits below the leading one. Monotonic in `v`, total over u64.
std::size_t HistogramBucketFor(std::uint64_t v);

/// Smallest value mapping to bucket `index` (the bucket's lower edge).
std::uint64_t HistogramBucketLowerBound(std::size_t index);

/// Plain-data histogram state: copy, merge, serialize freely.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Valid only when count > 0 (min is saturated otherwise).
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  /// Bucket-wise merge: exact (associative and commutative), which is
  /// what lets the shard aggregator sum per-shard histograms and a trace
  /// analyzer sum per-thread ones without resampling error.
  HistogramSnapshot& operator+=(const HistogramSnapshot& other);

  /// Inclusive percentile (q in [0, 1]) by linear interpolation inside
  /// the bucket holding the rank, clamped to [min, max]. 0 when empty.
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  bool empty() const { return count == 0; }
};

/// Live recorder: relaxed atomics only, safe for concurrent Record from
/// any thread while others snapshot. Mergeable via snapshots.
class Histogram {
 public:
  /// Snapshot derives `count` from the buckets, so count == Σ buckets
  /// holds even against concurrent recording (sum/min/max may trail one
  /// in-flight record by design — they are relaxed gauges).
  void Record(std::uint64_t v) {
    buckets_[HistogramBucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    AtomicMin(&min_, v);
    AtomicMax(&max_, v);
  }

  HistogramSnapshot snapshot() const;

 private:
  static void AtomicMin(std::atomic<std::uint64_t>* slot, std::uint64_t v) {
    std::uint64_t cur = slot->load(std::memory_order_relaxed);
    while (v < cur && !slot->compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  static void AtomicMax(std::atomic<std::uint64_t>* slot, std::uint64_t v) {
    std::uint64_t cur = slot->load(std::memory_order_relaxed);
    while (v > cur && !slot->compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace incsr::obs

#endif  // INCSR_OBS_HISTOGRAM_H_

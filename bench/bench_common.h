// Shared plumbing for the figure-reproduction harnesses: converged-option
// helpers, simple aligned table printing, and the update-application
// protocol (time a capped prefix of a snapshot delta, extrapolate to the
// full delta — per-update costs are stationary, so the extrapolation is
// the per-update mean times |ΔE|; both numbers are printed).
#ifndef INCSR_BENCH_BENCH_COMMON_H_
#define INCSR_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "incsr/incsr.h"

namespace incsr::bench {

/// Options whose truncation bound C^(K+1) is below 1e-13.
inline simrank::SimRankOptions ConvergedOptions(double damping) {
  simrank::SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

/// Line-buffers stdout so progress is visible when output is redirected.
inline void InitBench() { std::setvbuf(stdout, nullptr, _IOLBF, 0); }

/// Prints "name = value"-style run configuration lines.
inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Result of timing an incremental engine over a (possibly capped) prefix
/// of a snapshot delta.
struct TimedUpdates {
  std::size_t applied = 0;        // unit updates actually timed
  std::size_t total = 0;          // |ΔE| of the full delta
  double seconds = 0.0;           // measured wall time for `applied`
  /// Extrapolated wall time for the full delta (== seconds when uncapped).
  double ExtrapolatedSeconds() const {
    if (applied == 0) return 0.0;
    return seconds * static_cast<double>(total) /
           static_cast<double>(applied);
  }
};

/// Applies up to `cap` unit updates from `delta` through `apply` (a
/// callable Status(const graph::EdgeUpdate&)), timing them.
template <typename ApplyFn>
TimedUpdates TimeUpdates(const std::vector<graph::EdgeUpdate>& delta,
                         std::size_t cap, ApplyFn&& apply) {
  TimedUpdates result;
  result.total = delta.size();
  const std::size_t count = std::min(cap, delta.size());
  WallTimer timer;
  for (std::size_t k = 0; k < count; ++k) {
    Status s = apply(delta[k]);
    INCSR_CHECK(s.ok(), "bench update failed: %s", s.ToString().c_str());
  }
  result.seconds = timer.ElapsedSeconds();
  result.applied = count;
  return result;
}

/// The figure benches' --scale row: a multiplier on each stand-in's scale,
/// at most 1 / `largest_scale` so that every dataset's stays in (0, 1].
inline FlagTable& ScaleFlag(FlagTable& flags, double* multiplier,
                            double largest_scale) {
  return flags.Double("--scale", "X", "stand-in scale multiplier", multiplier,
                      0.0, 1 / largest_scale, /*exclusive_min=*/true);
}

/// Loads a SNAP edge list and cuts it into a snapshot series for the
/// figure harnesses (--edges FILE [--temporal]). With `temporal` the
/// file's line order is taken as the arrival order — SNAP temporal
/// datasets ship their lines in arrival order, so prefixes of the file
/// are real historical snapshots. Without it the stream is shuffled
/// deterministically (fixed seed, so runs are comparable) because the
/// line order of a non-temporal dump encodes nothing.
inline Result<graph::SnapshotSeries> LoadEdgeListSeries(
    const std::string& path, bool temporal, std::size_t num_snapshots,
    double base_fraction = 0.8) {
  auto data = graph::ReadEdgeListFile(path);
  if (!data.ok()) return data.status();
  std::vector<graph::TimestampedEdge> stream;
  stream.reserve(data->edges.size());
  for (std::size_t k = 0; k < data->edges.size(); ++k) {
    stream.push_back({data->edges[k], static_cast<std::int64_t>(k)});
  }
  if (!temporal) {
    Rng rng(2014);
    for (std::size_t k = stream.size(); k > 1; --k) {
      std::swap(stream[k - 1], stream[rng.NextBounded(k)]);
    }
    for (std::size_t k = 0; k < stream.size(); ++k) {
      stream[k].timestamp = static_cast<std::int64_t>(k);
    }
  }
  std::printf("loaded %s: %zu nodes, %zu edges (%zu duplicate lines "
              "skipped), %s order\n",
              path.c_str(), data->graph.num_nodes(), stream.size(),
              data->duplicates_skipped,
              temporal ? "temporal (file)" : "shuffled");
  return graph::SnapshotSeries::FromStream(data->graph.num_nodes(),
                                           std::move(stream), num_snapshots,
                                           base_fraction);
}

/// Minimal JSON emitter for the BENCH_*.json trajectory files: an object
/// of scalar fields (insertion order preserved) and named arrays of child
/// objects. Covers exactly what the harnesses need — workload params and
/// metrics — without a JSON dependency.
///
///   JsonObject root;
///   root.Set("bench", "serve_throughput").Set("nodes", config.nodes);
///   JsonObject* run = root.AddObject("runs");
///   run->Set("updates_per_sec", 123.4);
///   WriteJsonFile(path, root);
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value) {
    return SetRaw(key, "\"" + Escape(value) + "\"");
  }
  JsonObject& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonObject& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return SetRaw(key, buf);
  }
  JsonObject& Set(const std::string& key, unsigned long value) {  // NOLINT
    return SetRaw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, unsigned long long value) {  // NOLINT
    return SetRaw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, int value) {
    return SetRaw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, bool value) {
    return SetRaw(key, value ? "true" : "false");
  }

  /// Appends a fresh object to the array `key` (created on first use) and
  /// returns it; the pointer stays valid for this JsonObject's lifetime.
  JsonObject* AddObject(const std::string& key) {
    for (Entry& entry : entries_) {
      if (entry.is_array && entry.key == key) {
        entry.children.push_back(std::make_unique<JsonObject>());
        return entry.children.back().get();
      }
    }
    entries_.push_back(Entry{key, "", true, {}});
    entries_.back().children.push_back(std::make_unique<JsonObject>());
    return entries_.back().children.back().get();
  }

  std::string ToString(int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner(static_cast<std::size_t>(indent + 1) * 2, ' ');
    std::string out = "{\n";
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      const Entry& entry = entries_[e];
      out += inner + "\"" + Escape(entry.key) + "\": ";
      if (entry.is_array) {
        out += "[\n";
        for (std::size_t c = 0; c < entry.children.size(); ++c) {
          out += inner + "  " + entry.children[c]->ToString(indent + 2);
          if (c + 1 < entry.children.size()) out += ",";
          out += "\n";
        }
        out += inner + "]";
      } else {
        out += entry.value;
      }
      if (e + 1 < entries_.size()) out += ",";
      out += "\n";
    }
    out += pad + "}";
    return out;
  }

 private:
  struct Entry {
    std::string key;
    std::string value;  // pre-rendered scalar (unused for arrays)
    bool is_array = false;
    std::vector<std::unique_ptr<JsonObject>> children;
  };

  static std::string Escape(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (char ch : raw) {
      if (ch == '"' || ch == '\\') out.push_back('\\');
      out.push_back(ch);
    }
    return out;
  }

  JsonObject& SetRaw(const std::string& key, std::string rendered) {
    entries_.push_back(Entry{key, std::move(rendered), false, {}});
    return *this;
  }

  std::vector<Entry> entries_;
};

/// Writes `root` to `path` (overwriting). Returns false on I/O failure.
inline bool WriteJsonFile(const std::string& path, const JsonObject& root) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = root.ToString() + "\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

/// Zipf-skewed sampler over ranks [0, n): P(rank r) ∝ 1/(r+1)^theta.
/// theta = 0 degenerates to uniform; theta around 0.8-1.2 models the
/// hot-node query skew of real serving traffic. Precomputes the CDF once
/// (O(n)) and samples by binary search (O(log n)).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta) : cdf_(n) {
    INCSR_CHECK(n > 0, "ZipfSampler needs n > 0");
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (std::size_t r = 0; r < n; ++r) cdf_[r] /= total;
  }

  std::size_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Fraction of entries that differ between two equally sized matrices —
/// the "affected pairs" measure of Fig. 2d/2e (a changed entry is one the
/// incremental update actually touched with a nonzero delta). Generic over
/// row-readable containers (la::DenseMatrix, la::ScoreStore, views).
template <typename BeforeLike, typename AfterLike>
double ChangedFraction(const BeforeLike& before, const AfterLike& after) {
  INCSR_CHECK(before.rows() == after.rows() && before.cols() == after.cols(),
              "ChangedFraction shape mismatch");
  std::size_t changed = 0;
  la::Vector scratch_b;
  la::Vector scratch_a;
  for (std::size_t i = 0; i < before.rows(); ++i) {
    const double* b = before.ReadRow(i, &scratch_b);
    const double* a = after.ReadRow(i, &scratch_a);
    for (std::size_t j = 0; j < before.cols(); ++j) {
      if (a[j] != b[j]) ++changed;
    }
  }
  return static_cast<double>(changed) /
         (static_cast<double>(before.rows()) *
          static_cast<double>(before.cols()));
}

}  // namespace incsr::bench

#endif  // INCSR_BENCH_BENCH_COMMON_H_

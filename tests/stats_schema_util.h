// Schema-driven helpers for stats tests. They walk the ServiceStats field
// table (obs/stats_schema.h) instead of naming fields, so a counter added
// to the table is covered by every test that uses them with no test edit.
#ifndef INCSR_TESTS_STATS_SCHEMA_UTIL_H_
#define INCSR_TESTS_STATS_SCHEMA_UTIL_H_

#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "obs/histogram.h"
#include "obs/stats_schema.h"
#include "service/simrank_service.h"

namespace incsr::test_util {

/// One leaf field of a stats struct, by value.
struct StatLeaf {
  std::string name;
  obs::StatAgg agg;
  std::variant<std::uint64_t, double, obs::HistogramSnapshot> value;
};

inline std::vector<StatLeaf> Leaves(const service::ServiceStats& stats) {
  std::vector<StatLeaf> out;
  obs::VisitLeaves(stats, [&](const std::string& name,
                              const obs::StatField& field, const auto& value) {
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (std::is_integral_v<T>) {
      out.push_back({name, field.agg, static_cast<std::uint64_t>(value)});
    } else {
      out.push_back({name, field.agg, value});
    }
  });
  return out;
}

/// Sets every leaf of `stats` to a value no other leaf (and no other
/// seed) shares, none of them the default: scalars get seed·1000 + the
/// leaf ordinal, histograms one to three recorded samples.
inline void FillDistinct(service::ServiceStats* stats, std::uint64_t seed) {
  std::uint64_t ordinal = 0;
  obs::VisitLeaves(*stats, [&](const std::string&, const obs::StatField&,
                               auto& value) {
    using T = std::remove_cvref_t<decltype(value)>;
    const std::uint64_t v = seed * 1000 + ++ordinal;
    if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
      obs::Histogram hist;
      for (std::uint64_t i = 0; i <= v % 3; ++i) hist.Record(v * 97 * (i + 1));
      value = hist.snapshot();
    } else if constexpr (std::is_floating_point_v<T>) {
      value = static_cast<double>(v) + 0.25;
    } else {
      value = static_cast<T>(v);
    }
  });
}

/// Every leaf rendered as "name=value" (doubles by their bits, histograms
/// by count, sum, min, max and non-zero buckets), for EXPECT_EQ diffs
/// that name the field that differs.
inline std::vector<std::string> Rendered(const service::ServiceStats& stats) {
  std::vector<std::string> out;
  for (const StatLeaf& leaf : Leaves(stats)) {
    std::string text = leaf.name + "=";
    if (const auto* u = std::get_if<std::uint64_t>(&leaf.value)) {
      text += std::to_string(*u);
    } else if (const auto* d = std::get_if<double>(&leaf.value)) {
      text += "bits:" + std::to_string(std::bit_cast<std::uint64_t>(*d));
    } else {
      const auto& h = std::get<obs::HistogramSnapshot>(leaf.value);
      text += "count:" + std::to_string(h.count) + " sum:" +
              std::to_string(h.sum) + " min:" + std::to_string(h.min) +
              " max:" + std::to_string(h.max) + " buckets:";
      for (std::size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] != 0) {
          text += std::to_string(i) + "x" + std::to_string(h.buckets[i]) + ",";
        }
      }
    }
    out.push_back(std::move(text));
  }
  return out;
}

}  // namespace incsr::test_util

#endif  // INCSR_TESTS_STATS_SCHEMA_UTIL_H_

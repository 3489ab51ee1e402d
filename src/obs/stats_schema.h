// Stats schema: a counter struct is declared ONCE, as a field table, and
// everything that walks its fields — aggregation across shards, the wire
// codec (src/net/wire.cc), the CLI's Prometheus printer — is driven by
// that table. A table is an X-macro list of rows
//
//   X(member, C++ type, aggregation, "unit", "one line of help")
//
// and INCSR_STATS_TABLE(Struct, TABLE) expands it into the struct's
// members, a static VisitFields(visitor) that calls
// visitor(StatField, &Struct::member) per row in table order, and an
// operator+= generated from the aggregation column. Adding a counter is
// one row plus the line that produces its value.
//
// Member types: an unsigned integer or double (a scalar), an
// obs::HistogramSnapshot (aggregation kHistogram), or another table
// struct, which nests: visitors flatten its fields as
// "<member>_<field>" (ServiceStats::cache.hits is "cache_hits").
#ifndef INCSR_OBS_STATS_SCHEMA_H_
#define INCSR_OBS_STATS_SCHEMA_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/histogram.h"

namespace incsr::obs {

/// How a field combines when two stats structs are added.
enum class StatAgg : std::uint8_t {
  kSum,        ///< cumulative counter: adds
  kMax,        ///< sequence number or bound: keeps the larger
  kGauge,      ///< current level: adds across live instances only
               ///< (see MergeStats)
  kHistogram,  ///< HistogramSnapshot: bucket-wise merge
};

/// One row of a stats table as visitors see it.
struct StatField {
  std::string_view name;
  StatAgg agg;
  std::string_view unit;
  std::string_view help;
};

/// True for structs declared with INCSR_STATS_TABLE.
template <typename T>
concept StatsTable = requires { T::kIsStatsTable; };

/// Field-wise `into += from` by the aggregation column (the generated
/// operator+=). With `gauges` false, kGauge fields are left alone: that
/// folds the final stats of an instance that no longer exists (a shard
/// merged away) into a cumulative record, which keeps its counts but not
/// its levels.
template <StatsTable S>
void MergeStats(S* into, const S& from, bool gauges = true) {
  S::VisitFields([&](const StatField& field, auto member) {
    auto& value = into->*member;
    const auto& other = from.*member;
    using T = std::remove_cvref_t<decltype(value)>;
    if constexpr (StatsTable<T>) {
      MergeStats(&value, other, gauges);
    } else if constexpr (std::is_same_v<T, HistogramSnapshot>) {
      value += other;
    } else if (field.agg == StatAgg::kMax) {
      value = std::max(value, other);
    } else if (field.agg == StatAgg::kSum || gauges) {
      value += other;
    }
  });
}

/// Calls f(name, field, value) for every leaf field of `stats` in table
/// order, recursing into nested tables with "<member>_" name prefixes.
/// `value` is a reference to the member (const when `stats` is const).
template <typename S, typename F>
void VisitLeaves(S& stats, F&& f, const std::string& prefix = {}) {
  std::remove_const_t<S>::VisitFields([&](const StatField& field,
                                          auto member) {
    auto& value = stats.*member;
    const std::string name = prefix + std::string(field.name);
    if constexpr (StatsTable<std::remove_cvref_t<decltype(value)>>) {
      VisitLeaves(value, f, name + "_");
    } else {
      f(name, field, value);
    }
  });
}

}  // namespace incsr::obs

#define INCSR_STATS_MEMBER_(name, type, agg, unit, help) type name{};

#define INCSR_STATS_VISIT_(name, type, agg, unit, help)                     \
  static_assert(                                                            \
      (::incsr::obs::StatAgg::agg == ::incsr::obs::StatAgg::kHistogram) ==  \
          std::is_same_v<type, ::incsr::obs::HistogramSnapshot>,            \
      #name ": histogram fields aggregate as kHistogram, others cannot");   \
  visitor(::incsr::obs::StatField{#name, ::incsr::obs::StatAgg::agg, unit,  \
                                  help},                                    \
          &Self::name);

/// Expands a field table into the members, VisitFields and operator+= of
/// the enclosing struct `Struct`.
#define INCSR_STATS_TABLE(Struct, TABLE)                                    \
  TABLE(INCSR_STATS_MEMBER_)                                                \
  static constexpr bool kIsStatsTable = true;                               \
  template <typename Visitor>                                               \
  static void VisitFields(Visitor&& visitor) {                              \
    using Self = Struct;                                                    \
    TABLE(INCSR_STATS_VISIT_)                                               \
  }                                                                         \
  Struct& operator+=(const Struct& other) {                                 \
    ::incsr::obs::MergeStats(this, other);                                  \
    return *this;                                                           \
  }

#endif  // INCSR_OBS_STATS_SCHEMA_H_

#include "core/affected_area.h"

#include "common/check.h"

namespace incsr::core {

double AffectedAreaStats::AffectedArea() const {
  INCSR_CHECK(a_sizes.size() == b_sizes.size(),
              "AffectedAreaStats: ragged sizes");
  if (a_sizes.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t k = 0; k < a_sizes.size(); ++k) {
    total += static_cast<double>(a_sizes[k]) * static_cast<double>(b_sizes[k]);
  }
  return total / static_cast<double>(a_sizes.size());
}

double AffectedAreaStats::AffectedFraction() const {
  if (num_nodes == 0) return 0.0;
  double n2 = static_cast<double>(num_nodes) * static_cast<double>(num_nodes);
  return AffectedArea() / n2;
}

double AffectedAreaStats::PrunedFraction() const {
  return 1.0 - AffectedFraction();
}

void AffectedAreaStats::Merge(const AffectedAreaStats& other) {
  a_sizes.insert(a_sizes.end(), other.a_sizes.begin(), other.a_sizes.end());
  b_sizes.insert(b_sizes.end(), other.b_sizes.begin(), other.b_sizes.end());
  num_nodes = other.num_nodes > num_nodes ? other.num_nodes : num_nodes;
}

}  // namespace incsr::core

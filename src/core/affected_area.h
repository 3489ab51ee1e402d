// Affected-area accounting for the pruned incremental algorithm. The
// paper's complexity bound is O(K(n·d + |AFF|)) with
// |AFF| := avg_{k∈[0,K]} |A_k|·|B_k| (Section V-B); Fig. 2d/2e report the
// pruned-pair percentage and |AFF|/n² — these statistics regenerate both.
#ifndef INCSR_CORE_AFFECTED_AREA_H_
#define INCSR_CORE_AFFECTED_AREA_H_

#include <cstddef>
#include <vector>

namespace incsr::core {

/// Sizes of the affected node-pair blocks A_k × B_k touched by one (or
/// more, when accumulated) pruned incremental updates.
struct AffectedAreaStats {
  /// |A_k| per iteration k = 0..K (row support of the k-th term of M).
  std::vector<std::size_t> a_sizes;
  /// |B_k| per iteration k = 0..K (column support).
  std::vector<std::size_t> b_sizes;
  /// Node count n of the graph the update ran on.
  std::size_t num_nodes = 0;

  /// |AFF| = avg_k |A_k|·|B_k|.
  double AffectedArea() const;
  /// |AFF| / n² — the Fig. 2e series.
  double AffectedFraction() const;
  /// 1 − |AFF|/n² — the Fig. 2d pruned-pair percentage.
  double PrunedFraction() const;

  /// Merges another update's measurements (per-k sizes are appended; the
  /// averages then span all merged updates).
  void Merge(const AffectedAreaStats& other);
};

}  // namespace incsr::core

#endif  // INCSR_CORE_AFFECTED_AREA_H_

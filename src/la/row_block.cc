#include "la/row_block.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace incsr::la {

double RowBlock::SparseAt(std::size_t col) const {
  INCSR_DCHECK(is_sparse(), "SparseAt on a dense block");
  const auto it = std::lower_bound(sparse_cols.begin(), sparse_cols.end(),
                                   static_cast<std::int32_t>(col));
  if (it == sparse_cols.end() || *it != static_cast<std::int32_t>(col)) {
    return 0.0;
  }
  return sparse_vals[static_cast<std::size_t>(it - sparse_cols.begin())];
}

void RowBlock::GatherInto(std::size_t num_cols, double* dst) const {
  INCSR_DCHECK(is_sparse(), "GatherInto on a dense block");
  std::fill(dst, dst + num_cols, 0.0);
  for (std::size_t k = 0; k < sparse_cols.size(); ++k) {
    dst[static_cast<std::size_t>(sparse_cols[k])] = sparse_vals[k];
  }
}

SparsifyResult SparsifyDenseRow(const double* row, std::size_t num_cols,
                                double epsilon, double max_density,
                                std::span<const std::int32_t> keep_cols) {
  SparsifyResult result;
  // The retained budget: one past it and the row is not worth compressing
  // (an index+value pair costs 12 bytes against 8 dense).
  const std::size_t max_nnz = static_cast<std::size_t>(
      max_density * static_cast<double>(num_cols));

  // keep_cols arrive in score order from the top-k index; membership tests
  // need them sorted.
  std::vector<std::int32_t> keep(keep_cols.begin(), keep_cols.end());
  std::sort(keep.begin(), keep.end());

  auto block = std::make_shared<RowBlock>();
  block->kind = RowBlock::Kind::kSparse;
  auto keep_it = keep.begin();
  for (std::size_t j = 0; j < num_cols; ++j) {
    const double v = row[j];
    bool kept_by_index = false;
    while (keep_it != keep.end() &&
           *keep_it < static_cast<std::int32_t>(j)) {
      ++keep_it;
    }
    if (keep_it != keep.end() && *keep_it == static_cast<std::int32_t>(j)) {
      kept_by_index = true;
    }
    if (!kept_by_index) {
      if (IsPositiveZero(v)) continue;  // lossless drop
      if (std::abs(v) < epsilon) {      // lossy drop, bounded by epsilon
        ++result.dropped;
        result.max_dropped_abs = std::max(result.max_dropped_abs, std::abs(v));
        continue;
      }
    }
    if (block->sparse_cols.size() >= max_nnz) return SparsifyResult{};
    block->sparse_cols.push_back(static_cast<std::int32_t>(j));
    block->sparse_vals.push_back(v);
  }
  result.block = std::move(block);
  return result;
}

std::shared_ptr<const RowBlock> MakeSingleEntryRow(std::size_t col,
                                                   double value) {
  auto block = std::make_shared<RowBlock>();
  block->kind = RowBlock::Kind::kSparse;
  block->sparse_cols.push_back(static_cast<std::int32_t>(col));
  block->sparse_vals.push_back(value);
  return block;
}

}  // namespace incsr::la

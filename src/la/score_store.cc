#include "la/score_store.h"

#include <algorithm>
#include <utility>

#include "common/scheduler.h"
#include "obs/trace.h"

namespace incsr::la {

ScoreStore::ScoreStore(DenseMatrix dense)
    // Writes between now and the first Publish() hit owned rows and are
    // not individually tracked — the whole matrix counts as touched.
    : all_rows_touched_(true) {
  const std::size_t n = dense.rows();
  cols_ = dense.cols();
  stats_.rows_materialized = n;
  stats_.bytes_materialized =
      static_cast<std::uint64_t>(n) * cols_ * sizeof(double);
  // Row payloads are disjoint and each is a pure copy, so the
  // materialization parallelizes deterministically; this is what makes
  // a shard-merge's FromState re-init row-parallel instead of the O(n²)
  // serial copy it used to be. Aim for ~32K doubles per chunk.
  const std::size_t grain =
      std::max<std::size_t>(1, 32768 / std::max<std::size_t>(cols_, 1));
  std::vector<std::shared_ptr<const RowBlock>> blocks(n);
  Scheduler::Global().ParallelFor(
      0, n, grain, Scheduler::ResolveNumThreads(0),
      [this, &dense, &blocks](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          auto block = std::make_shared<RowBlock>();
          const double* src = dense.RowPtr(i);
          block->dense.assign(src, src + cols_);
          blocks[i] = std::move(block);
        }
      });
  for (auto& block : blocks) table_.Append(std::move(block));
  BumpDensePeak();
}

ScoreStore ScoreStore::ScaledIdentity(std::size_t n, double value) {
  ScoreStore store;
  store.cols_ = n;
  store.all_rows_touched_ = true;
  for (std::size_t i = 0; i < n; ++i) {
    store.table_.Append(MakeSingleEntryRow(i, value));
    store.stats_.sparse_payload_bytes += store.table_[i].payload_bytes();
  }
  store.stats_.rows_sparse = n;
  store.stats_.rows_materialized += n;
  store.stats_.bytes_materialized += store.stats_.sparse_payload_bytes;
  return store;
}

void ScoreStore::set_sparsity(const SparsityConfig& config) {
  INCSR_CHECK(config.epsilon >= 0.0 && config.max_density > 0.0 &&
                  config.error_amplification >= 1.0,
              "invalid sparsity config (eps %g, density %g, amplification %g)",
              config.epsilon, config.max_density, config.error_amplification);
  sparsity_ = config;
  sparsity_enabled_ = true;
}

void ScoreStore::ReplaceRow(std::size_t i,
                            std::shared_ptr<const RowBlock> block) {
  if (!table_.owned(i) && !all_rows_touched_) {
    touched_rows_.push_back(static_cast<std::int32_t>(i));
  }
  table_.Set(i, std::move(block));
}

void ScoreStore::GrowByIsolatedNode(double self_score) {
  ++cols_;
  for (std::size_t i = 0; i < rows(); ++i) {
    const RowBlock& block = table_[i];
    // A sparse row already reads +0.0 in the new column, so its block is
    // reused as is — ownership included, so a commit into a block an
    // older View holds still builds a new block instead of merging in
    // place.
    if (block.is_sparse()) continue;
    auto grown = std::make_shared<RowBlock>();
    grown->dense.reserve(cols_);
    grown->dense.assign(block.dense.begin(), block.dense.end());
    grown->dense.push_back(0.0);
    table_.Set(i, std::move(grown));
    ++stats_.rows_materialized;
    stats_.bytes_materialized += cols_ * sizeof(double);
  }
  table_.Append(MakeSingleEntryRow(rows(), self_score));
  const std::size_t new_row_bytes = table_[rows() - 1].payload_bytes();
  ++stats_.rows_sparse;
  stats_.sparse_payload_bytes += new_row_bytes;
  ++stats_.rows_materialized;
  stats_.bytes_materialized += new_row_bytes;
  all_rows_touched_ = true;
  touched_rows_.clear();
  BumpDensePeak();
}

std::uint64_t ScoreStore::DensePayloadBytes() const {
  const std::uint64_t dense_rows =
      static_cast<std::uint64_t>(rows()) - stats_.rows_sparse;
  return dense_rows * cols_ * sizeof(double);
}

void ScoreStore::BumpDensePeak() {
  const std::uint64_t current = DensePayloadBytes();
  if (current > stats_.epoch_peak_dense_bytes) {
    stats_.epoch_peak_dense_bytes = current;
  }
}

void ScoreStore::BeginWriteRow(std::size_t i, RowWriter* w) {
  INCSR_DCHECK(i < rows(), "row %zu out of %zu", i, rows());
  const RowBlock& block = table_[i];
  if (block.is_sparse()) {
    // Sparse session: deltas accumulate against the pinned base block, and
    // nothing in the row table changes until commit — so a reader (or a
    // parallel Add on another row's writer) never observes a half-written
    // row.
    w->BeginSparse(i, cols_, table_.slot(i));
    return;
  }
  if (!table_.owned(i)) {
    // First write into a row a published View may reference: clone it.
    // The old block stays alive (and byte-stable) for as long as any View
    // holds it; this clone IS the incremental publish cost.
    auto clone = std::make_shared<RowBlock>();
    clone->dense = block.dense;
    const std::size_t bytes = clone->dense.size() * sizeof(double);
    ++stats_.rows_copied;
    stats_.bytes_copied += bytes;
    TRACE_COUNTER_ARG(kStoreRowCow, 1, bytes);
    ReplaceRow(i, std::move(clone));
  }
  w->BeginDense(i, table_.MutableSlot(i)->dense.data());
}

void ScoreStore::CommitWriteRow(RowWriter* w) {
  if (w->direct_dense() || !w->touched()) {
    // Dense-direct: the writes already landed through the flat pointer and
    // Begin did the COW/touched bookkeeping. Zero writes: the row's
    // readable bytes are unchanged, so keep the base block (and its
    // ownership) as they are.
    w->Finish();
    return;
  }
  const std::size_t i = w->row();
  const std::size_t max_nnz = static_cast<std::size_t>(
      sparsity_.max_density * static_cast<double>(cols_));
  bool landed_sparse = false;
  if (!w->spilled()) {
    landed_sparse =
        w->MergeSparse(max_nnz, &merge_scratch_cols_, &merge_scratch_vals_);
    if (landed_sparse && table_.owned(i)) {
      // The row is already writer-owned this epoch, so the merged arrays
      // can swap into the live block directly. The displaced arrays
      // become the next commit's scratch, so a row merged repeatedly
      // within one batch allocates nothing after the first merge. The
      // writer's pinned base is this very block, but MergeSparse finished
      // reading it before the swap and Finish() only drops the pin.
      RowBlock* block = table_.MutableSlot(i);
      stats_.sparse_payload_bytes -= block->payload_bytes();
      block->sparse_cols.swap(merge_scratch_cols_);
      block->sparse_vals.swap(merge_scratch_vals_);
      stats_.sparse_payload_bytes += block->payload_bytes();
      ++stats_.sparse_write_merges;
      TRACE_COUNTER_ARG(kStoreSparseMerge, i, block->payload_bytes());
      w->Finish();
      return;
    }
    if (!landed_sparse) {
      // Past the max_density gate: the row is no longer worth compressing.
      w->Dense();
    }
  }
  auto block = std::make_shared<RowBlock>();
  if (w->spilled()) {
    block->kind = RowBlock::Kind::kDense;
    block->dense = w->TakeDense();
  } else {
    block->kind = RowBlock::Kind::kSparse;
    block->sparse_cols = std::move(merge_scratch_cols_);
    block->sparse_vals = std::move(merge_scratch_vals_);
  }
  stats_.sparse_payload_bytes -= table_[i].payload_bytes();
  if (landed_sparse) {
    stats_.sparse_payload_bytes += block->payload_bytes();
    ++stats_.sparse_write_merges;
    TRACE_COUNTER_ARG(kStoreSparseMerge, i, block->payload_bytes());
  } else {
    --stats_.rows_sparse;
    ++stats_.rows_spilled_dense;
    TRACE_COUNTER_ARG(kStoreWriteSpill, i, 1);
  }
  ReplaceRow(i, std::move(block));
  if (!landed_sparse) BumpDensePeak();
  w->Finish();
}

bool ScoreStore::SparsifyRow(std::size_t i,
                             std::span<const std::int32_t> keep_cols,
                             std::size_t* dropped_out) {
  INCSR_DCHECK(i < rows(), "row %zu out of %zu", i, rows());
  INCSR_CHECK(sparsity_enabled_, "SparsifyRow without set_sparsity");
  const RowBlock& block = table_[i];
  if (block.is_sparse()) return false;
  SparsifyResult result =
      SparsifyDenseRow(block.dense.data(), cols_, sparsity_.epsilon,
                       sparsity_.max_density, keep_cols);
  if (!result.block) return false;  // density gate: stay dense
  stats_.sparse_payload_bytes += result.block->payload_bytes();
  ++stats_.rows_sparse;
  ++stats_.rows_sparsified;
  TRACE_COUNTER_ARG(kStoreTierDemote, i, result.block->payload_bytes());
  stats_.eps_drops += result.dropped;
  if (result.dropped > 0) {
    stats_.max_error_bound +=
        result.max_dropped_abs * sparsity_.error_amplification;
  }
  // Replacing a row the writer does not own enters the touched delta even
  // when the readable bytes did not change (dropped == 0): the invariant
  // "owned implies already recorded this epoch" is what lets BeginWriteRow
  // skip the lookup, and a spurious re-rank of a demoted row is cheap.
  ReplaceRow(i, std::move(result.block));
  if (dropped_out != nullptr) *dropped_out = result.dropped;
  return true;
}

std::uint64_t ScoreStore::bytes_saved() const {
  const std::uint64_t dense_equiv =
      stats_.rows_sparse * static_cast<std::uint64_t>(cols_) * sizeof(double);
  return dense_equiv > stats_.sparse_payload_bytes
             ? dense_equiv - stats_.sparse_payload_bytes
             : 0;
}

std::uint64_t ScoreStore::payload_bytes() const {
  return DensePayloadBytes() + stats_.sparse_payload_bytes;
}

ScoreStore::View ScoreStore::Publish() {
  View view;
  view.table_ = table_.Publish();  // ⌈n/256⌉ page pointers — the whole cost
  view.cols_ = cols_;
  // The published view now IS the previous epoch: the delta restarts empty,
  // and the transient-dense watermark restarts at the resident footprint.
  all_rows_touched_ = false;
  touched_rows_.clear();
  stats_.epoch_peak_dense_bytes = DensePayloadBytes();
  ++stats_.publishes;
  return view;
}

}  // namespace incsr::la

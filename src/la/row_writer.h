// RowWriter — the representation-aware write session behind the kernel
// write contract, and the only way to write a la::ScoreStore row (the
// store hands out no writable row pointer). Handing kernels a flat dense
// `double*` per row would force the store to densify sparse rows on write
// (transiently materializing O(touched · n) dense bytes per batch); a
// RowWriter instead lets the store pick the cheapest backing per row:
//
//   - Dense-direct: the row is dense-backed, so the writer wraps the raw
//     row pointer and Add() compiles down to `row[col] += delta`.
//   - Sparse session: the row stays in its sparse block. Add() accumulates
//     (column, delta) pairs in a writer-local open-addressing table; the
//     first touch of a column SEEDS the accumulator with the base block's
//     stored value (exact +0.0 when absent — the same bytes a densify
//     would have gathered), then every delta applies immediately. The
//     per-column floating-point sequence is therefore IDENTICAL to
//     writing through a densified row: (stored + d₁) + d₂ + …, in kernel
//     emission order — which is what keeps sparse commits bitwise equal
//     to the same writes on a dense-backed row at ε = 0.
//
// Dense() spills a sparse session to a writer-local dense buffer (gather
// base, flush accumulated touches) for kernels that genuinely write O(n)
// columns (Inc-uSR's unpruned scatter); ScoreStore::CommitWriteRow installs
// it as a dense block and counts the spill.
//
// Threading: Begin*/commit are store-side and writer-thread-only, but
// Add()/Dense() touch only writer-local state plus the IMMUTABLE base
// block, so disjoint rows' writers may be filled from parallel workers.
#ifndef INCSR_LA_ROW_WRITER_H_
#define INCSR_LA_ROW_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "la/row_block.h"
#include "la/vector.h"

namespace incsr::la {

/// One row's write session. Reusable: Begin* resets all session state, so
/// engines keep a pool of writers and steady-state updates allocate
/// nothing once the tables have grown to the working-set size.
class RowWriter {
 public:
  RowWriter() = default;
  RowWriter(RowWriter&&) = default;
  RowWriter& operator=(RowWriter&&) = default;
  RowWriter(const RowWriter&) = delete;
  RowWriter& operator=(const RowWriter&) = delete;

  // ---- kernel-side write API ----------------------------------------------

  /// row[col] += delta, in kernel emission order.
  void Add(std::size_t col, double delta) {
    INCSR_DCHECK(mode_ != Mode::kIdle, "Add outside a write session");
    if (dense_ != nullptr) {
      dense_[col] += delta;
      return;
    }
    AddSparse(col, delta);
  }

  /// True when writes go straight through a flat row pointer (dense-direct
  /// session, or a sparse session that already spilled). Kernels may use
  /// Dense() as a raw fast path when this holds.
  bool is_dense() const { return dense_ != nullptr; }

  /// Flat pointer covering all columns of the row. A sparse session SPILLS:
  /// the base block is gathered into a writer-local dense buffer and the
  /// accumulated touches are flushed onto it, after which the commit will
  /// install a dense block (counted as a write-path spill). Safe to call
  /// from a parallel worker — the buffer is writer-local and the base
  /// block immutable.
  double* Dense();

  // ---- store-side session protocol ----------------------------------------
  // Called by la::ScoreStore; kernels never call these directly.

  /// Opens a dense-direct session onto `dense` (cols entries, exclusively
  /// owned by the caller for the session's duration).
  void BeginDense(std::size_t row, double* dense);

  /// Opens a sparse accumulation session against the immutable `base`
  /// block (single-row sparse layout).
  void BeginSparse(std::size_t row, std::size_t cols,
                   std::shared_ptr<const RowBlock> base);

  std::size_t row() const { return row_; }
  bool direct_dense() const { return mode_ == Mode::kDenseDirect; }
  bool spilled() const { return spilled_; }
  /// True when the session wrote anything at all. An untouched sparse
  /// session commits as a no-op (the row's readable bytes are unchanged).
  bool touched() const { return spilled_ || !touched_cols_.empty(); }
  std::size_t touched_count() const { return touched_cols_.size(); }

  /// Merges the base block with the accumulated touches into sorted
  /// index+value arrays: untouched base entries keep their bit patterns,
  /// touched columns take their accumulated value, and merged values that
  /// are exact +0.0 are dropped (bitwise lossless — a gather refills them).
  /// Returns false without completing when the merged row would exceed
  /// `max_nnz` retained entries (the max_density spill gate, mirroring
  /// SparsifyDenseRow); the caller then spills via Dense().
  bool MergeSparse(std::size_t max_nnz, TrackedIndices* cols,
                   TrackedDoubles* vals);

  /// Moves out the spilled dense payload (valid only after a spill).
  TrackedDoubles TakeDense();

  /// Closes the session (drops the base block reference, returns to idle).
  void Finish();

 private:
  enum class Mode : std::uint8_t { kIdle, kDenseDirect, kSparseSession };

  void AddSparse(std::size_t col, double delta);
  std::size_t Probe(std::size_t col) const;
  void Rehash(std::size_t new_capacity);

  Mode mode_ = Mode::kIdle;
  bool spilled_ = false;
  std::size_t row_ = 0;
  std::size_t cols_ = 0;
  double* dense_ = nullptr;
  std::shared_ptr<const RowBlock> base_;
  // Touched columns in first-touch order with parallel accumulators
  // (seeded from base, then += per Add — see the file comment for why
  // this exact sequence is the determinism contract).
  std::vector<std::int32_t> touched_cols_;
  std::vector<double> touched_vals_;
  // Open-addressing col → touched-slot map: power-of-two capacity, linear
  // probing, rehash at load factor 1/2; -1 marks an empty slot.
  std::vector<std::int32_t> slots_;
  std::size_t slot_mask_ = 0;
  std::vector<std::int32_t> order_;  // MergeSparse sort scratch
  TrackedDoubles dense_buf_;         // spill target
};

}  // namespace incsr::la

#endif  // INCSR_LA_ROW_WRITER_H_

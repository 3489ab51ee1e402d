// Batch SimRank in the MATRIX form the reproduced paper builds on:
//     S = C · Q · S · Qᵀ + (1 − C) · Iₙ                     (Eq. 2)
// iterated as S₀ = (1−C)·I, S_{k+1} = C·Q·S_k·Qᵀ + (1−C)·I, which equals
// the truncated series (1−C)·Σ_{k≤K} Cᵏ·Qᵏ·(Qᵀ)ᵏ. Each iteration is two
// sparse×dense products (O(m·n) = O(d·n²)) plus an O(n²) transpose.
//
// The solve holds two n×n buffers for the whole call and reuses them every
// iteration, and each of its three passes (Q·S, transpose, Q·(Q·S)ᵀ then
// scale and diagonal) splits its output rows over the shared scheduler
// with SimRankOptions::num_threads threads. Every output element keeps
// the serial operation sequence — zero, CSR-order accumulation, exact
// transpose, scale by C, add 1−C on the diagonal — so the result is
// bitwise identical at any thread count.
//
// This is the "Batch" recompute-from-scratch comparator in the paper's
// experiments, and — run to convergence — the ground truth that the
// incremental Inc-uSR / Inc-SR results are asserted against.
#ifndef INCSR_SIMRANK_BATCH_MATRIX_H_
#define INCSR_SIMRANK_BATCH_MATRIX_H_

#include "graph/digraph.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"
#include "simrank/options.h"

namespace incsr::simrank {

/// All-pairs matrix-form SimRank from a graph.
la::DenseMatrix BatchMatrix(const graph::DynamicDiGraph& graph,
                            const SimRankOptions& options = {});

/// All-pairs matrix-form SimRank from a prebuilt backward transition matrix.
la::DenseMatrix BatchMatrixFromTransition(const la::CsrMatrix& q,
                                          const SimRankOptions& options = {});

}  // namespace incsr::simrank

#endif  // INCSR_SIMRANK_BATCH_MATRIX_H_

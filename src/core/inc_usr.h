// Inc-uSR — Algorithm 1 of the paper. Given the old graph's transition
// matrix Q and similarity matrix S, a unit edge update is absorbed in
// O(K·n²) time WITHOUT any matrix-matrix product: the rank-one structure
// of C·u·wᵀ lets the Sylvester series for M be advanced with two auxiliary
// vectors,
//
//   ξ₀ = C·e_j, η₀ = θ, M₀ = ξ₀·η₀ᵀ,
//   ξ_{k+1} = C·(Q·ξ_k + (vᵀξ_k)·u)        // = C·Q̃·ξ_k, old-Q trick
//   η_{k+1} = Q·η_k + (vᵀη_k)·u            // = Q̃·η_k
//   M_{k+1} = ξ_{k+1}·η_{k+1}ᵀ + M_k,
//
// and the new scores are S̃ = S + M_K + M_Kᵀ.
#ifndef INCSR_CORE_INC_USR_H_
#define INCSR_CORE_INC_USR_H_

#include "common/status.h"
#include "core/update_seed.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "la/dense_matrix.h"
#include "la/score_store.h"
#include "la/sparse_matrix.h"
#include "simrank/options.h"

namespace incsr::core {

/// Computes the K-truncated auxiliary matrix M_K for a unit update from
/// the OLD Q and S (Algorithm 1, lines 1-17); ΔS = M_K + M_Kᵀ.
Result<la::DenseMatrix> IncUsrAuxiliaryM(const la::DynamicRowMatrix& q,
                                         const la::ScoreStore& s,
                                         const graph::EdgeUpdate& update,
                                         const simrank::SimRankOptions& options);

/// Full unit-update cycle: validates the update against *graph, computes
/// ΔS from the old state, applies the edge change to *graph, refreshes the
/// touched row of *q, and adds ΔS into *s. All three outputs are left
/// unmodified on failure.
Status IncUsrApplyUpdate(const graph::EdgeUpdate& update,
                         const simrank::SimRankOptions& options,
                         graph::DynamicDiGraph* graph,
                         la::DynamicRowMatrix* q, la::ScoreStore* s);

}  // namespace incsr::core

#endif  // INCSR_CORE_INC_USR_H_

// Theorems 2-3 of the paper: for a unit update (i, j) with rank-one change
// ΔQ = u·vᵀ, the SimRank update matrix is ΔS = M + Mᵀ where
//
//   M = Σ_{k≥0} C^{k+1} · Q̃ᵏ · e_j · θᵀ · (Q̃ᵀ)ᵏ            (Eq. 26)
//
// and the dense seed vector θ (with scalar γ) has the closed forms of
// Eqs. (27)-(29), computable from the OLD Q and S only:
//
//   w := Q·[S]_{·,i}
//   γ := [S]_{i,i} + (1/C)[S]_{j,j} − 2[w]_j − 1/C + 1       (Eq. 29)
//   insert d_j = 0:  θ = w + ½[S]_{i,i}·e_j                  (γ = [S]_{i,i})
//   insert d_j > 0:  θ = (w − (1/C)[S]_{·,j}
//                          + (γ/(2(d_j+1)) + 1/C − 1)·e_j) / (d_j+1)
//   delete d_j = 1:  θ = ½[S]_{i,i}·e_j − w                  (γ = [S]_{i,i})
//   delete d_j > 1:  θ = ((1/C)[S]_{·,j} − w
//                          + (γ/(2(d_j−1)) − 1/C + 1)·e_j) / (d_j−1)
//
// The identities (31)-(32) that eliminate Q·S·Qᵀ terms hold at the exact
// fixed point of Eq. (2); both incremental algorithms are therefore exact
// in the paper's sense — they converge to the true SimRank as K grows.
#ifndef INCSR_CORE_UPDATE_SEED_H_
#define INCSR_CORE_UPDATE_SEED_H_

#include "common/status.h"
#include "core/rank_one_update.h"
#include "la/score_store.h"
#include "la/sparse_matrix.h"
#include "la/vector.h"
#include "simrank/options.h"

namespace incsr::core {

/// Everything Algorithm 1/2 needs to start iterating: the Theorem 1
/// factors, the scalar γ, and the seed vector θ.
struct UpdateSeed {
  RankOneUpdate rank_one;
  double gamma = 0.0;
  la::Vector theta;
};

/// Computes the dense seed from the OLD transition matrix and OLD scores
/// (Algorithm 1, lines 1-12).
Result<UpdateSeed> ComputeUpdateSeed(const la::DynamicRowMatrix& q,
                                     const la::ScoreStore& s,
                                     const graph::EdgeUpdate& update,
                                     const simrank::SimRankOptions& options);

}  // namespace incsr::core

#endif  // INCSR_CORE_UPDATE_SEED_H_

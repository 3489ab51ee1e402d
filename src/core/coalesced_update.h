// Coalesced batch updates — an optimization the paper's framework implies
// but does not spell out. Theorem 1 proves a UNIT update changes one row
// of Q, making ΔQ rank-one; but the proof never uses that only one entry
// of the row moved: ANY set of insertions/deletions whose target is the
// same node j changes only row j, so their combined ΔQ = e_j·vᵀ is still
// rank-one with v = (new row − old row)ᵀ. Theorem 2's seed derivation
// (z = S·v, γ = vᵀ·z, w = Q·z + (γ/2)·u) is likewise valid for arbitrary
// rank-one factors. Hence a batch ΔG touching T distinct target nodes can
// be absorbed with T rank-one Sylvester solves instead of |ΔG| — a
// |ΔG|/T-fold saving when updates cluster on hot nodes (new papers citing
// many references, re-ranked related-video lists, …).
//
// Exactness is unchanged: each coalesced group is processed against the
// current state, and the final graph (hence the fixed point) is identical
// to the unit-update decomposition's.
//
// DynamicSimRank::ApplyBatchCoalesced runs one IncSrEngine::ApplyRowUpdate
// per group.
#ifndef INCSR_CORE_COALESCED_UPDATE_H_
#define INCSR_CORE_COALESCED_UPDATE_H_

#include <vector>

#include "graph/update_stream.h"

namespace incsr::core {

/// All updates of a batch that share one target node (order preserved).
struct CoalescedGroup {
  graph::NodeId target;
  std::vector<graph::EdgeUpdate> changes;
};

/// Groups a batch by target node, preserving the first-appearance order of
/// targets. The updates themselves keep their relative order inside each
/// group. Grouping is exact because updates on different targets commute
/// on Q (they touch disjoint rows) and the final S depends only on the
/// final graph.
std::vector<CoalescedGroup> CoalesceByTarget(
    const std::vector<graph::EdgeUpdate>& updates);

}  // namespace incsr::core

#endif  // INCSR_CORE_COALESCED_UPDATE_H_

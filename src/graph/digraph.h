// Dynamic directed graph with sorted in/out adjacency. This is the
// link-evolving substrate of the paper: a unit update inserts or deletes a
// single edge (i, j) in O(log d + d) while keeping both adjacency
// directions queryable — the incremental algorithms need in-neighbors for
// the transition matrix Q and out-neighbors for Theorem 4's affected-area
// expansion.
//
// Storage is copy-on-write at node granularity in a paged table like
// la::ScoreStore's (common/cow_table.h): each node's adjacency pair lives in
// an immutable, reference-counted record. Snapshot() publishes an immutable
// View by copying the page ROOT only (⌈n/256⌉ pointers, never the O(n+m)
// adjacency payload); the first mutation of a node after it clones the
// node's page (256 pointers) and record. So the serving layer pins a
// byte-stable graph per epoch at O(nodes touched) cost, and copying a whole
// graph is lazy: whichever side mutates a node first clones it.
//
// Threading model (matches ScoreStore): ONE writer thread mutates; readers
// use Views obtained via a synchronizing handoff. The COW decision is the
// table's writer-private ownership rule, not use_count(), so the graph is
// TSan-clean by design.
#ifndef INCSR_GRAPH_DIGRAPH_H_
#define INCSR_GRAPH_DIGRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/cow_table.h"
#include "common/memory.h"
#include "common/status.h"

namespace incsr::graph {

/// Node identifier (dense, 0-based).
using NodeId = std::int32_t;

/// A directed edge src → dst.
struct Edge {
  NodeId src;
  NodeId dst;

  bool operator==(const Edge&) const = default;
  auto operator<=>(const Edge&) const = default;
};

/// Packs an edge into a 64-bit key (for dedup sets and overlay maps).
inline std::uint64_t EdgeKey(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

namespace internal {

/// One node's adjacency, immutable once published or copied.
struct NodeRec {
  std::vector<NodeId, TrackedAllocator<NodeId>> out;  // successors, sorted
  std::vector<NodeId, TrackedAllocator<NodeId>> in;    // predecessors, sorted

  bool operator==(const NodeRec&) const = default;
};

/// The read surface DynamicDiGraph and DynamicDiGraph::View share, written
/// once over either the writer's node table or a published snapshot of it.
template <typename Table>
class AdjacencyReader {
 public:
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// True when `node` is a valid id.
  bool HasNode(NodeId node) const {
    return node >= 0 && static_cast<std::size_t>(node) < nodes_.size();
  }

  /// Successors of `node`, sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId node) const {
    INCSR_CHECK(HasNode(node), "OutNeighbors: bad node %d", node);
    return nodes_[static_cast<std::size_t>(node)].out;
  }
  /// Predecessors of `node`, sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId node) const {
    INCSR_CHECK(HasNode(node), "InNeighbors: bad node %d", node);
    return nodes_[static_cast<std::size_t>(node)].in;
  }

  std::size_t OutDegree(NodeId node) const { return OutNeighbors(node).size(); }
  std::size_t InDegree(NodeId node) const { return InNeighbors(node).size(); }

  /// O(log out-degree) membership test (false on bad ids).
  bool HasEdge(NodeId src, NodeId dst) const {
    if (!HasNode(src) || !HasNode(dst)) return false;
    const auto& adj = nodes_[static_cast<std::size_t>(src)].out;
    return std::binary_search(adj.begin(), adj.end(), dst);
  }

  /// Average in-degree (= |E| / |V|); the d in the paper's
  /// O(K(n·d + |AFF|)) bound.
  double AverageInDegree() const {
    return num_nodes() == 0 ? 0.0
                            : static_cast<double>(num_edges_) /
                                  static_cast<double>(num_nodes());
  }

  /// All edges in (src, dst) lexicographic order.
  std::vector<Edge> Edges() const {
    std::vector<Edge> edges;
    edges.reserve(num_edges_);
    for (std::size_t u = 0; u < nodes_.size(); ++u) {
      for (NodeId v : nodes_[u].out) {
        edges.push_back({static_cast<NodeId>(u), v});
      }
    }
    return edges;
  }

 protected:
  Table nodes_;
  std::size_t num_edges_ = 0;
};

}  // namespace internal

/// Mutable directed graph over a dense node-id space [0, num_nodes).
/// Parallel edges are rejected; self-loops are allowed (SimRank is defined
/// for them) but none of the shipped generators produce them. Copies have
/// value semantics with a lazy payload: a copy shares every node record
/// with its source, and whichever side mutates a node first clones it.
class DynamicDiGraph
    : public internal::AdjacencyReader<CowTable<internal::NodeRec>> {
  using NodeRec = internal::NodeRec;

 public:
  /// Immutable adjacency snapshot. Copying a View copies the page root
  /// (⌈n/256⌉ pointers); pinning an existing View via shared_ptr is O(1).
  /// Reads are valid and byte-stable for the View's lifetime.
  class View : public internal::AdjacencyReader<CowTable<NodeRec>::Snapshot> {
    friend class DynamicDiGraph;
  };

  DynamicDiGraph() = default;
  /// Graph with `num_nodes` isolated nodes.
  explicit DynamicDiGraph(std::size_t num_nodes) { AddNodes(num_nodes); }

  /// Appends `count` isolated nodes; returns the first new id. O(count):
  /// fresh nodes share one global empty record until their first edge.
  NodeId AddNodes(std::size_t count = 1);

  /// Inserts edge src → dst. Fails with OutOfRange on bad ids and
  /// AlreadyExists on duplicates.
  Status AddEdge(NodeId src, NodeId dst);
  /// Removes edge src → dst. Fails with OutOfRange / NotFound.
  Status RemoveEdge(NodeId src, NodeId dst);

  /// Publishes the current adjacency as an immutable View: copies the
  /// page root and ends the writer's ownership of every record, so
  /// subsequent mutations copy-on-write. O(⌈n/256⌉) — never the O(n+m)
  /// payload. Writer thread only.
  View Snapshot();

  /// Cumulative adjacency bytes cloned by copy-on-write — the true
  /// incremental cost of keeping published Views byte-stable (reported as
  /// graph_bytes_copied by the serving stats).
  std::uint64_t cow_bytes_copied() const { return bytes_copied_; }

  bool operator==(const DynamicDiGraph& other) const {
    return num_nodes() == other.num_nodes() && Edges() == other.Edges();
  }

 private:
  // Write entry point: clones the record first unless owned (COW).
  NodeRec* MutableNode(std::size_t i);
  static const std::shared_ptr<const NodeRec>& EmptyRec();

  std::uint64_t bytes_copied_ = 0;
};

}  // namespace incsr::graph

#endif  // INCSR_GRAPH_DIGRAPH_H_

#include "graph/digraph.h"

#include <algorithm>
#include <string>

namespace incsr::graph {

namespace {

// Inserts `value` into a sorted vector; returns false if already present.
template <typename Vec>
bool SortedInsert(Vec* vec, NodeId value) {
  auto it = std::lower_bound(vec->begin(), vec->end(), value);
  if (it != vec->end() && *it == value) return false;
  vec->insert(it, value);
  return true;
}

// Erases `value` from a sorted vector; returns false if absent.
template <typename Vec>
bool SortedErase(Vec* vec, NodeId value) {
  auto it = std::lower_bound(vec->begin(), vec->end(), value);
  if (it == vec->end() || *it != value) return false;
  vec->erase(it);
  return true;
}

std::string EdgeName(NodeId src, NodeId dst) {
  return "(" + std::to_string(src) + ", " + std::to_string(dst) + ")";
}

}  // namespace

const std::shared_ptr<const DynamicDiGraph::NodeRec>&
DynamicDiGraph::EmptyRec() {
  // Every isolated node in every graph shares this one record (never
  // owned), so AddNodes is O(count) pointer stores with no
  // per-node allocation — load-bearing for standing up 10⁵⁺-node graphs.
  static const std::shared_ptr<const NodeRec> kEmpty =
      std::make_shared<NodeRec>();
  return kEmpty;
}

DynamicDiGraph::NodeRec* DynamicDiGraph::MutableNode(std::size_t i) {
  if (!nodes_.owned(i)) {
    auto clone = std::make_shared<NodeRec>(nodes_[i]);
    bytes_copied_ +=
        (clone->out.size() + clone->in.size()) * sizeof(NodeId);
    nodes_.Set(i, std::move(clone));
  }
  return nodes_.MutableSlot(i);
}

NodeId DynamicDiGraph::AddNodes(std::size_t count) {
  NodeId first = static_cast<NodeId>(nodes_.size());
  nodes_.Resize(nodes_.size() + count, EmptyRec());
  return first;
}

Status DynamicDiGraph::AddEdge(NodeId src, NodeId dst) {
  if (!HasNode(src) || !HasNode(dst)) {
    return Status::OutOfRange("AddEdge: node id out of range for edge " +
                              EdgeName(src, dst));
  }
  // Membership is checked against the immutable record first so a
  // duplicate insert clones nothing.
  if (HasEdge(src, dst)) {
    return Status::AlreadyExists("AddEdge: duplicate edge " +
                                 EdgeName(src, dst));
  }
  SortedInsert(&MutableNode(static_cast<std::size_t>(src))->out, dst);
  SortedInsert(&MutableNode(static_cast<std::size_t>(dst))->in, src);
  ++num_edges_;
  return Status::OK();
}

Status DynamicDiGraph::RemoveEdge(NodeId src, NodeId dst) {
  if (!HasNode(src) || !HasNode(dst)) {
    return Status::OutOfRange("RemoveEdge: node id out of range for edge " +
                              EdgeName(src, dst));
  }
  if (!HasEdge(src, dst)) {
    return Status::NotFound("RemoveEdge: no edge " + EdgeName(src, dst));
  }
  SortedErase(&MutableNode(static_cast<std::size_t>(src))->out, dst);
  SortedErase(&MutableNode(static_cast<std::size_t>(dst))->in, src);
  --num_edges_;
  return Status::OK();
}

DynamicDiGraph::View DynamicDiGraph::Snapshot() {
  View view;
  view.nodes_ = nodes_.Publish();  // ⌈n/256⌉ page pointers — the whole cost
  view.num_edges_ = num_edges_;
  return view;
}

}  // namespace incsr::graph

#include "core/coalesced_update.h"

#include <unordered_map>

namespace incsr::core {

std::vector<CoalescedGroup> CoalesceByTarget(
    const std::vector<graph::EdgeUpdate>& updates) {
  std::vector<CoalescedGroup> groups;
  std::unordered_map<graph::NodeId, std::size_t> index_of_target;
  for (const graph::EdgeUpdate& update : updates) {
    auto [it, inserted] =
        index_of_target.emplace(update.dst, groups.size());
    if (inserted) {
      groups.push_back({update.dst, {}});
    }
    groups[it->second].changes.push_back(update);
  }
  return groups;
}

}  // namespace incsr::core

// One G-HBA group as the planner sees it: pure data, no algebra.
//
// A group of at most M servers collectively mirrors the whole system: for
// every server outside the group, exactly one member holds that server's
// Bloom-filter replica. `replica_holder` is that exact owner -> holder
// assignment. The group algebra that keeps it true through joins, leaves,
// failures, splits and merges lives in core::GroupPlan (group_plan.hpp);
// the simulator and the prototype only execute what the planner decides.
// The ID Bloom-filter array the protocols consult (Section 2.4) is
// executor state derived from this map, not part of it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/lookup_outcome.hpp"

namespace ghba {

using GroupId = std::uint32_t;

struct Group {
  GroupId id = 0;
  std::vector<MdsId> members;
  std::map<MdsId, MdsId> replica_holder;  // owner -> holder

  bool HasMember(MdsId id) const {
    return std::find(members.begin(), members.end(), id) != members.end();
  }

  std::size_t size() const { return members.size(); }
};

}  // namespace ghba

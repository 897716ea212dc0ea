// Expectations on a live PrototypeCluster shared by the rpc and client
// suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>

#include "rpc/prototype_cluster.hpp"

namespace ghba {

/// Every live server's segment array holds exactly the outsider replicas
/// the orchestrator's holder map assigns to it: nothing missing, nothing
/// left over from before a crash.
inline void ExpectSegmentsMatchHolderMap(PrototypeCluster& cluster) {
  const auto alive = cluster.AliveServers();
  for (const MdsId server : alive) {
    const auto view = cluster.MembershipOf(server);
    ASSERT_TRUE(view.ok()) << "server " << server;
    for (const MdsId owner : alive) {
      if (owner == server) continue;
      bool assigned = false;
      if (std::find(view->begin(), view->end(), owner) == view->end()) {
        const auto holder = cluster.HolderOf(server, owner);
        ASSERT_TRUE(holder.ok()) << "server " << server << " owner " << owner;
        assigned = *holder == server;
      }
      const auto held = cluster.HoldsReplica(server, owner);
      ASSERT_TRUE(held.ok()) << "server " << server << " owner " << owner;
      EXPECT_EQ(*held, assigned) << "server " << server << " owner " << owner;
    }
  }
}

}  // namespace ghba

// Expectations on a live PrototypeCluster, and the names of its
// reconfiguration crash points, shared by the rpc and client suites.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "rpc/prototype_cluster.hpp"

namespace ghba {

/// The executor's crash point that powers `id` off after the scatter round
/// in which it answered `stage` (fetch, install or drop).
inline std::string ReconfigCrashPoint(const char* stage, MdsId id) {
  return std::string("reconfig.") + stage + "." + std::to_string(id);
}

/// Where a replica migration crashes: the old holder after it answered
/// the fetch or the drop, or the new holder after it answered the install.
enum class MoveCrash : std::uint8_t { kFetchFrom, kInstallTo, kDropFrom };

inline const char* StageOf(MoveCrash at) {
  switch (at) {
    case MoveCrash::kFetchFrom: return "fetch";
    case MoveCrash::kInstallTo: return "install";
    case MoveCrash::kDropFrom: return "drop";
  }
  return "unknown";
}

/// Test-name suffix of a MoveCrash parameter.
inline std::string MoveCrashName(
    const ::testing::TestParamInfo<MoveCrash>& info) {
  switch (info.param) {
    case MoveCrash::kFetchFrom: return "FetchFrom";
    case MoveCrash::kInstallTo: return "InstallTo";
    case MoveCrash::kDropFrom: return "DropFrom";
  }
  return "Unknown";
}

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

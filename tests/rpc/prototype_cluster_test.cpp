#include "rpc/prototype_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

namespace ghba {
namespace {

ClusterConfig ProtoConfig(std::uint32_t n = 8, std::uint32_t m = 3) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = m;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 77;
  return c;
}

FileMetadata Md(std::uint64_t inode = 1) {
  FileMetadata md;
  md.inode = inode;
  return md;
}

class PrototypeClusterTest : public ::testing::TestWithParam<ProtoScheme> {};

TEST_P(PrototypeClusterTest, InsertLookupRoundTrip) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.Insert("/p/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 60; ++i) {
    const auto r = cluster.Lookup("/p/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << i;
    EXPECT_GE(r->served_level, 1);
    EXPECT_LE(r->served_level, 4);
    EXPECT_GT(r->latency_ms, 0);
  }
}

TEST_P(PrototypeClusterTest, AbsentFileMisses) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  const auto r = cluster.Lookup("/never/created");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->served_level, 4);
}

TEST_P(PrototypeClusterTest, UnlinkThenMiss) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/u/x", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  ASSERT_TRUE(cluster.Unlink("/u/x").ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/u/x");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
}

TEST_P(PrototypeClusterTest, AddServerCountsMessages) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  const auto joined = cluster.AddServer();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(cluster.NumServers(), 9u);
  EXPECT_GT(joined->messages, 0u);
  // Service continues after the join.
  ASSERT_TRUE(cluster.Insert("/after/join", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/after/join");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

INSTANTIATE_TEST_SUITE_P(Schemes, PrototypeClusterTest,
                         ::testing::Values(ProtoScheme::kGhba,
                                           ProtoScheme::kHba),
                         [](const auto& info) {
                           return info.param == ProtoScheme::kGhba ? "Ghba"
                                                                   : "Hba";
                         });

TEST(PrototypeJoinCostTest, HbaJoinCostsMoreMessagesThanGhba) {
  // Fig. 15's claim, measured over the wire. N=13, M=3 leaves a group with
  // room, so the G-HBA join is the common (no-split) case the figure
  // averages over.
  std::uint64_t ghba_messages = 0, hba_messages = 0;
  {
    PrototypeCluster cluster(ProtoConfig(13, 3), ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    const auto joined = cluster.AddServer();
    ASSERT_TRUE(joined.ok());
    ghba_messages = joined->messages;
  }
  {
    PrototypeCluster cluster(ProtoConfig(13, 3), ProtoScheme::kHba);
    ASSERT_TRUE(cluster.Start().ok());
    const auto joined = cluster.AddServer();
    ASSERT_TRUE(joined.ok());
    hba_messages = joined->messages;
  }
  EXPECT_GT(hba_messages, ghba_messages);
}

TEST(PrototypeHotLookupTest, RepeatedLookupsReachL1) {
  PrototypeCluster cluster(ProtoConfig(6, 3), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/hot", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  int l1 = 0;
  for (int i = 0; i < 60; ++i) {
    const auto r = cluster.Lookup("/hot");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found);
    l1 += (r->served_level == 1);
  }
  EXPECT_GT(l1, 10);
}

TEST_P(PrototypeClusterTest, GracefulRemoveKeepsAllFiles) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.Insert("/rm/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  const auto removed = cluster.RemoveServer(2);
  ASSERT_TRUE(removed.ok());
  EXPECT_GT(removed->messages, 0u);
  EXPECT_EQ(cluster.AliveServers().size(), 7u);

  for (int i = 0; i < 60; ++i) {
    const auto r = cluster.Lookup("/rm/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << i;
    EXPECT_NE(r->home, 2u) << i;
  }
}

TEST_P(PrototypeClusterTest, CrashLosesOnlyItsFiles) {
  PrototypeCluster cluster(ProtoConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.Insert("/kill/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  // Record which files live on the victim.
  std::set<std::string> on_victim;
  for (int i = 0; i < 60; ++i) {
    const std::string path = "/kill/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found);
    if (r->home == 3u) on_victim.insert(path);
  }

  ASSERT_TRUE(cluster.KillServer(3).ok());
  EXPECT_EQ(cluster.AliveServers().size(), 7u);

  for (int i = 0; i < 60; ++i) {
    const std::string path = "/kill/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->found, on_victim.count(path) == 0) << path;
  }
  // The cluster still accepts new work.
  ASSERT_TRUE(cluster.Insert("/kill/after", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/kill/after");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST(PrototypeRemoveTest, RemoveUnknownRejected) {
  PrototypeCluster cluster(ProtoConfig(4, 2), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.RemoveServer(99).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cluster.KillServer(99).code(), StatusCode::kNotFound);
}

ClusterConfig TightRpcConfig(std::uint32_t n = 6, std::uint32_t m = 3) {
  // Short budgets so tests that exercise dead/stalled peers finish fast.
  auto c = ProtoConfig(n, m);
  c.rpc.connect_timeout_ms = 200;
  c.rpc.attempt_timeout_ms = 200;
  c.rpc.call_budget_ms = 600;
  c.rpc.max_attempts = 2;
  c.rpc.retry_backoff_ms = 2;
  c.rpc.suspect_after = 2;
  c.rpc.ping_attempts = 2;
  c.rpc.ping_timeout_ms = 100;
  return c;
}

TEST(PrototypeFailureTest, KillServerDropsFiltersAndRebuildsCoverage) {
  PrototypeCluster cluster(ProtoConfig(6, 3), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.Insert("/cov/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < 60; ++i) {
    const std::string path = "/cov/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->found);
    home_of[path] = r->home;
  }

  const MdsId victim = 1;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  EXPECT_EQ(cluster.AliveServers().size(), 5u);
  EXPECT_EQ(cluster.health().state(victim), PeerState::kDead);

  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    if (home == victim) {
      // Filters dropped everywhere: no stale replica or L1 entry may keep
      // naming the dead server, so the miss is clean and immediate.
      EXPECT_FALSE(r->found) << path;
    } else {
      EXPECT_TRUE(r->found) << path;
      EXPECT_EQ(r->home, home) << path;
      // Coverage rebuilt: with every group again holding a replica of
      // every outsider, no surviving file needs the global L4 fallback.
      EXPECT_LE(r->served_level, 3) << path;
    }
  }
}

TEST(PrototypeFailureTest, CrashedServerAutoDetectedAndFailedOver) {
  PrototypeCluster cluster(TightRpcConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.Insert("/auto/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < 30; ++i) {
    const std::string path = "/auto/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok());
    home_of[path] = r->home;
  }

  // Crash without telling the orchestrator: bookkeeping still lists the
  // victim as alive, and the warmed connection cache still points at it.
  const MdsId victim = 2;
  ASSERT_TRUE(cluster.CrashServer(victim).ok());
  auto alive = cluster.AliveServers();
  ASSERT_NE(std::find(alive.begin(), alive.end(), victim), alive.end());

  // A call into the crashed server fails within its budget instead of
  // hanging on the stale cached connection (evict + lazy reconnect).
  const auto start = std::chrono::steady_clock::now();
  const auto first = cluster.VerifyOn(victim, "/auto/f0");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(first.ok());
  EXPECT_LT(elapsed.count(), 5000);

  // The second failure crosses suspect_after; the kPing heart-beat finds
  // nobody home and fail-over runs — no manual KillServer anywhere.
  (void)cluster.VerifyOn(victim, "/auto/f0");
  alive = cluster.AliveServers();
  EXPECT_EQ(std::find(alive.begin(), alive.end(), victim), alive.end());
  EXPECT_EQ(cluster.health().state(victim), PeerState::kDead);

  // Service continues: survivors' files all resolve to their old homes.
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_EQ(r->found, home != victim) << path;
    if (home != victim) {
      EXPECT_EQ(r->home, home) << path;
    }
  }
  ASSERT_TRUE(cluster.Insert("/auto/after", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/auto/after");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

TEST(PrototypeFailureTest, SlowCallsDoNotTriggerFailOverByThemselves) {
  // One transient failure stays below suspect_after: the peer is never
  // suspected and nothing is torn down.
  PrototypeCluster cluster(TightRpcConfig(4, 2), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  EXPECT_EQ(cluster.health().state(0), PeerState::kHealthy);
  ASSERT_TRUE(cluster.Insert("/ok/x", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  EXPECT_EQ(cluster.AliveServers().size(), 4u);
  for (MdsId id = 0; id < 4; ++id) {
    EXPECT_EQ(cluster.health().state(id), PeerState::kHealthy) << id;
  }
}

TEST(PrototypeSplitTest, JoinsBeyondCapacityTriggerSplit) {
  // N=6, M=3: both groups start full, so the very first join must split.
  PrototypeCluster cluster(ProtoConfig(6, 3), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto groups_before = cluster.NumGroups();
  ASSERT_TRUE(cluster.AddServer().ok());
  EXPECT_GT(cluster.NumGroups(), groups_before);
  // Still serves across the reorganized groups.
  ASSERT_TRUE(cluster.Insert("/post/split", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/post/split");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

}  // namespace
}  // namespace ghba

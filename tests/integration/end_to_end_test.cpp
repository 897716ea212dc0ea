// Integration tests: full pipeline (trace generation -> replay -> lookup ->
// reconfiguration) across schemes, checking the cross-cutting guarantees no
// single module owns.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/ghba_cluster.hpp"
#include "core/hash_cluster.hpp"
#include "core/simulator.hpp"

namespace ghba {
namespace {

WorkloadProfile SmallProfile() {
  WorkloadProfile p = HpProfile();
  p.total_files = 1500;
  p.active_files = 500;
  return p;
}

ClusterConfig IntegrationConfig(std::uint32_t n = 10) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = 4;
  c.expected_files_per_mds = 1500;
  c.lru_capacity = 256;
  c.publish_after_mutations = 32;
  c.seed = 77;
  return c;
}

// Every scheme must agree with the others on which files exist — the
// lookup structures are routing accelerators, never sources of truth.
TEST(EndToEndTest, AllSchemesAgreeOnMembership) {
  std::vector<std::unique_ptr<MetadataCluster>> clusters;
  // HBA and BFA are G-HBA with groups of one, L1 on and off.
  auto groups_of_one = IntegrationConfig();
  groups_of_one.max_group_size = 1;
  clusters.push_back(std::make_unique<GhbaCluster>(IntegrationConfig()));
  clusters.push_back(std::make_unique<GhbaCluster>(groups_of_one));
  clusters.push_back(std::make_unique<GhbaCluster>(
      groups_of_one, ReplicaPlacement::kLeastLoaded, /*use_lru=*/false));
  clusters.push_back(
      std::make_unique<HashPlacementCluster>(IntegrationConfig()));

  // Same mutation sequence everywhere.
  for (int i = 0; i < 600; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    for (auto& c : clusters) {
      ASSERT_TRUE(c->CreateFile("/x/f" + std::to_string(i), md, 0).ok());
    }
  }
  for (int i = 0; i < 600; i += 3) {
    for (auto& c : clusters) {
      ASSERT_TRUE(c->UnlinkFile("/x/f" + std::to_string(i), 0).ok());
    }
  }
  for (auto& c : clusters) c->FlushReplicas(0);

  for (int i = 0; i < 600; ++i) {
    const std::string path = "/x/f" + std::to_string(i);
    const bool expected = (i % 3 != 0);
    for (auto& c : clusters) {
      EXPECT_EQ(c->Lookup(path, 0).found, expected)
          << c->SchemeName() << " " << path;
    }
  }
}

TEST(EndToEndTest, ReplayThenChurnThenReplay) {
  GhbaCluster cluster(IntegrationConfig(12));
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(SmallProfile(), 2, 5);
  sim.Populate(trace);

  const auto first = sim.Replay(trace, 3000);
  EXPECT_LT(first.not_found, first.lookups / 20);

  // Churn: two joins, one graceful leave, one failure.
  ASSERT_TRUE(cluster.AddMds(nullptr).ok());
  ASSERT_TRUE(cluster.AddMds(nullptr).ok());
  ASSERT_TRUE(cluster.RemoveMds(cluster.alive()[1], nullptr).ok());
  ASSERT_TRUE(cluster.FailMds(cluster.alive()[2], nullptr).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();

  // Replay continues; misses may now include files lost to the failure.
  const auto second = sim.Replay(trace, 3000);
  EXPECT_EQ(second.ops_replayed, 3000u);
  EXPECT_GT(second.lookups, 0u);
  // Sanity: overall service is still overwhelmingly successful.
  EXPECT_LT(second.not_found, second.lookups / 3);
}

TEST(EndToEndTest, LookupResultsMatchOracleUnderReplay) {
  GhbaCluster cluster(IntegrationConfig(9));
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(SmallProfile(), 2, 9);
  sim.Populate(trace);
  (void)sim.Replay(trace, 2000);

  // For every currently-existing file the oracle knows, the probabilistic
  // hierarchy must find exactly that home (L4 guarantees it).
  int checked = 0;
  for (const MdsId id : cluster.alive()) {
    cluster.node(id).store().ForEach(
        [&](const std::string& path, const FileMetadata&) {
          if (++checked > 300) return;  // sample
          const auto r = cluster.Lookup(path, 0);
          EXPECT_TRUE(r.found) << path;
          EXPECT_EQ(r.home, id) << path;
        });
    if (checked > 300) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(EndToEndTest, MessageAccountingConsistent) {
  GhbaCluster cluster(IntegrationConfig(8));
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(SmallProfile(), 2, 3);
  sim.Populate(trace);
  (void)sim.Replay(trace, 2000);
  const auto& m = cluster.metrics();
  EXPECT_GE(m.messages, m.lookup_messages + m.update_messages);
}

TEST(EndToEndTest, DeterministicAcrossRuns) {
  auto run = [] {
    GhbaCluster cluster(IntegrationConfig(10));
    ReplaySimulator sim(cluster);
    IntensifiedTrace trace(SmallProfile(), 2, 13);
    sim.Populate(trace);
    const auto result = sim.Replay(trace, 2500);
    return std::make_tuple(result.lookups, result.not_found,
                           static_cast<std::uint64_t>(cluster.metrics().levels.l1),
                           static_cast<std::uint64_t>(cluster.metrics().levels.l4),
                           cluster.metrics().lookup_latency_ms.sum());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ghba

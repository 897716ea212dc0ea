#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include "core/ghba_cluster.hpp"

namespace ghba {
namespace {

WorkloadProfile TinyProfile() {
  WorkloadProfile p;
  p.name = "tiny";
  p.total_files = 600;
  p.active_files = 150;
  p.users = 8;
  p.hosts = 3;
  p.ops_per_second = 500;
  return p;
}

ClusterConfig TestConfig() {
  ClusterConfig c;
  c.num_mds = 9;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 128;
  c.publish_after_mutations = 32;
  c.seed = 21;
  return c;
}

TEST(ReplaySimulatorTest, PopulateCreatesInitialNamespace) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 2, 5, 100);
  sim.Populate(trace);
  std::uint64_t total = 0;
  for (const MdsId id : cluster.alive()) {
    total += cluster.node(id).file_count();
  }
  EXPECT_EQ(total, trace.InitialFileCount());
  // Populate resets metrics: the workload starts clean.
  EXPECT_EQ(cluster.metrics().levels.total(), 0u);
}

TEST(ReplaySimulatorTest, ReplayCountsOpsByKind) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 2, 5, 0);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, 3000);
  EXPECT_EQ(result.ops_replayed, 3000u);
  EXPECT_EQ(result.lookups + result.creates + result.unlinks, 3000u);
  EXPECT_GT(result.lookups, result.creates);
}

TEST(ReplaySimulatorTest, MostLookupsSucceed) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 2, 7, 0);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, 4000);
  // References to unlinked files can miss; the bulk must succeed.
  EXPECT_LT(static_cast<double>(result.not_found),
            0.05 * static_cast<double>(result.lookups));
}

TEST(ReplaySimulatorTest, CheckpointsEmittedAtRequestedCadence) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 1, 9, 0);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, 1000, /*checkpoint_every=*/250);
  // 4 periodic; the final snapshot is not duplicated when the cadence
  // already produced one at the last op.
  ASSERT_EQ(result.checkpoints.size(), 4u);
  EXPECT_EQ(result.checkpoints[0].ops, 250u);
  EXPECT_EQ(result.checkpoints[3].ops, 1000u);
  EXPECT_EQ(result.checkpoints.back().ops, 1000u);
  for (const auto& cp : result.checkpoints) {
    EXPECT_GT(cp.avg_latency_ms, 0.0);
  }
}

TEST(ReplaySimulatorTest, LevelCountersCoverAllLookups) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 2, 11, 0);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, 2000);
  EXPECT_EQ(cluster.metrics().levels.total(), result.lookups);
}

TEST(ReplaySimulatorTest, LocalityYieldsL1Hits) {
  GhbaCluster cluster(TestConfig());
  ReplaySimulator sim(cluster);
  auto profile = TinyProfile();
  profile.rereference_prob = 0.7;
  IntensifiedTrace trace(profile, 1, 13, 0);
  sim.Populate(trace);
  (void)sim.Replay(trace, 5000);
  const auto& levels = cluster.metrics().levels;
  // With strong temporal locality a solid share of lookups must resolve at
  // L1 (the paper reports >80% at L1+L2).
  EXPECT_GT(levels.Fraction(levels.l1), 0.2);
}

TEST(ReplaySimulatorTest, CloseWritesAttributesAtHome) {
  GhbaCluster cluster(TestConfig());
  FileMetadata md;
  md.inode = 9;
  ASSERT_TRUE(cluster.CreateFile("/w/file", md, 0).ok());
  cluster.FlushReplicas(0);

  const auto r = cluster.CloseFile("/w/file", /*now_ms=*/5000.0, 8192);
  ASSERT_TRUE(r.found);
  const auto stored = cluster.node(r.home).store().Lookup("/w/file");
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored->size_bytes, 8192u);
  EXPECT_DOUBLE_EQ(stored->mtime, 5.0);

  // Close of a missing file is a miss, not a crash.
  const auto miss = cluster.CloseFile("/w/ghost", 0, 1);
  EXPECT_FALSE(miss.found);
}

TEST(ReplaySimulatorTest, WorksWithHbaToo) {
  auto config = TestConfig();
  config.max_group_size = 1;  // HBA: G-HBA with groups of one
  GhbaCluster cluster(config);
  ReplaySimulator sim(cluster);
  IntensifiedTrace trace(TinyProfile(), 2, 15, 0);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, 1500);
  EXPECT_EQ(result.ops_replayed, 1500u);
  EXPECT_LT(static_cast<double>(result.not_found),
            0.05 * static_cast<double>(result.lookups));
}

}  // namespace
}  // namespace ghba

#include "core/ghba_cluster.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace ghba {
namespace {

ClusterConfig SmallConfig(std::uint32_t n = 12, std::uint32_t m = 4) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = m;
  c.expected_files_per_mds = 2000;
  c.lru_capacity = 256;
  c.publish_after_mutations = 16;
  c.memory_budget_bytes = 64ULL << 20;  // ample: no disk spill in these tests
  c.seed = 7;
  return c;
}

FileMetadata Md(std::uint64_t inode = 1) {
  FileMetadata md;
  md.inode = inode;
  return md;
}

class GhbaClusterTest : public ::testing::Test {
 protected:
  GhbaClusterTest() : cluster_(SmallConfig()) {}

  void PopulateFiles(int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(cluster_
                      .CreateFile("/data/file" + std::to_string(i), Md(i), 0)
                      .ok());
    }
    cluster_.FlushReplicas(0);
    cluster_.metrics().Reset();
  }

  GhbaCluster cluster_;
};

TEST_F(GhbaClusterTest, ConstructionInvariants) {
  EXPECT_EQ(cluster_.NumMds(), 12u);
  EXPECT_EQ(cluster_.NumGroups(), 3u);  // 12 / M=4
  EXPECT_TRUE(cluster_.CheckInvariants().ok())
      << cluster_.CheckInvariants().ToString();
}

TEST_F(GhbaClusterTest, ThetaMatchesPaperFormula) {
  // Each group of M'=4 members covers N-M'=8 outsiders; per member theta
  // is about (N-M')/M' = 2.
  for (MdsId id = 0; id < 12; ++id) {
    EXPECT_NEAR(static_cast<double>(cluster_.ThetaOf(id)), 2.0, 1.0) << id;
  }
}

TEST_F(GhbaClusterTest, LookupFindsEveryPopulatedFile) {
  PopulateFiles(500);
  for (int i = 0; i < 500; ++i) {
    const std::string path = "/data/file" + std::to_string(i);
    const auto r = cluster_.Lookup(path, 0);
    EXPECT_TRUE(r.found) << path;
    EXPECT_EQ(r.home, cluster_.OracleHome(path)) << path;
    EXPECT_GE(r.served_level, 1);
    EXPECT_LE(r.served_level, 4);
    EXPECT_GT(r.latency_ms, 0);
  }
}

TEST_F(GhbaClusterTest, LookupMissesAbsentFiles) {
  PopulateFiles(100);
  const auto r = cluster_.Lookup("/does/not/exist", 0);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.home, kInvalidMds);
  EXPECT_EQ(r.served_level, 4);  // misses are concluded by global multicast
}

TEST_F(GhbaClusterTest, RepeatedLookupsHitL1) {
  PopulateFiles(200);
  const std::string hot = "/data/file42";
  (void)cluster_.Lookup(hot, 0);  // warms the entry MDS's LRU
  // Subsequent lookups enter at random MDSs; those that land on a warmed
  // MDS resolve at L1. Loop until statistically certain.
  int l1_hits = 0;
  for (int i = 0; i < 200; ++i) {
    const auto r = cluster_.Lookup(hot, 0);
    ASSERT_TRUE(r.found);
    l1_hits += (r.served_level == 1);
  }
  EXPECT_GT(l1_hits, 50);  // warms more caches as it goes
}

TEST_F(GhbaClusterTest, L1IsFasterThanL4) {
  PopulateFiles(300);
  for (int i = 0; i < 300; ++i) {
    (void)cluster_.Lookup("/data/file" + std::to_string(i % 30), 0);
  }
  const auto& m = cluster_.metrics();
  if (m.levels.l1 > 0 && m.levels.l4 > 0) {
    EXPECT_LT(m.l1_latency_ms.mean(), m.global_latency_ms.mean());
  }
  if (m.levels.l2 > 0 && m.levels.l3 > 0) {
    EXPECT_LT(m.l2_latency_ms.mean(), m.group_latency_ms.mean());
  }
}

TEST_F(GhbaClusterTest, NewFileVisibleBeforePublishViaL4) {
  PopulateFiles(50);
  // One create; the mutation budget (16) is not reached, so replicas are
  // stale and only the global multicast can find it.
  ASSERT_TRUE(cluster_.CreateFile("/fresh/file", Md(), 0).ok());
  const auto r = cluster_.Lookup("/fresh/file", 0);
  EXPECT_TRUE(r.found);
}

TEST_F(GhbaClusterTest, PublishMakesFileVisibleAtLowerLevels) {
  PopulateFiles(50);
  ASSERT_TRUE(cluster_.CreateFile("/fresh/file", Md(), 0).ok());
  cluster_.PublishReplica(cluster_.OracleHome("/fresh/file"), 0);
  // After publish, replicas know the file: most lookups resolve below L4.
  int below_l4 = 0;
  for (int i = 0; i < 50; ++i) {
    const auto r = cluster_.Lookup("/fresh/file", 0);
    ASSERT_TRUE(r.found);
    below_l4 += (r.served_level < 4);
  }
  EXPECT_GT(below_l4, 40);
}

TEST_F(GhbaClusterTest, MutationBudgetTriggersPublish) {
  PopulateFiles(10);
  const std::uint64_t publishes_before = cluster_.metrics().publishes;
  // 16 * 12 mutations guarantee at least one MDS crosses the budget of 16.
  for (int i = 0; i < 16 * 12; ++i) {
    ASSERT_TRUE(cluster_.CreateFile("/churn/f" + std::to_string(i), Md(), 0).ok());
  }
  EXPECT_GT(cluster_.metrics().publishes, publishes_before);
}

TEST_F(GhbaClusterTest, UnlinkRemovesFile) {
  PopulateFiles(100);
  ASSERT_TRUE(cluster_.UnlinkFile("/data/file7", 0).ok());
  cluster_.FlushReplicas(0);
  const auto r = cluster_.Lookup("/data/file7", 0);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(cluster_.UnlinkFile("/data/file7", 0).code(),
            StatusCode::kNotFound);
}

TEST_F(GhbaClusterTest, DuplicateCreateRejected) {
  PopulateFiles(1);
  EXPECT_EQ(cluster_.CreateFile("/data/file0", Md(), 0).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GhbaClusterTest, AddMdsKeepsInvariantsAndFindsFiles) {
  PopulateFiles(200);
  ReconfigReport rep;
  const auto nid = cluster_.AddMds(&rep);
  ASSERT_TRUE(nid.ok());
  EXPECT_EQ(cluster_.NumMds(), 13u);
  EXPECT_TRUE(cluster_.CheckInvariants().ok())
      << cluster_.CheckInvariants().ToString();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cluster_.Lookup("/data/file" + std::to_string(i), 0).found);
  }
}

TEST(GhbaJoinTest, AddMdsMigrationMatchesPaperBound) {
  // Section 3.1 / Fig. 11: joining a group with room migrates about
  // (N - M')/(M' + 1) replicas. N=12, M=5 gives groups {5,5,2}; joining the
  // group of 2 moves ~ 10/3 replicas.
  GhbaCluster cluster(SmallConfig(12, 5));
  ReconfigReport rep;
  ASSERT_TRUE(cluster.AddMds(&rep).ok());
  EXPECT_FALSE(rep.group_split);
  EXPECT_LE(rep.replicas_migrated, 5u);
  EXPECT_GT(rep.messages, 0u);
  EXPECT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();
}

// Pins bench_fig11's setup (BenchConfig(n, PaperOptimalM(n), 1000, seed
// 100), groups of M-1): the exact replicas one join migrates under hash
// placement and under G-HBA's least-loaded placement.
TEST(GhbaJoinTest, MigrationCountsMatchFig11) {
  struct Case {
    std::uint32_t n;
    std::uint32_t m;
    std::uint64_t hash_placement;
    std::uint64_t ghba;
  };
  for (const Case& c :
       {Case{20, 6, 15, 5}, Case{60, 7, 48, 12}, Case{100, 9, 79, 16}}) {
    for (const ReplicaPlacement placement :
         {ReplicaPlacement::kModularHash, ReplicaPlacement::kLeastLoaded}) {
      ClusterConfig config;
      config.num_mds = c.n;
      config.max_group_size = c.m;
      config.initial_group_size = c.m - 1;
      config.expected_files_per_mds = 1000;
      config.lru_capacity = 2048;
      config.publish_after_mutations = 128;
      config.memory_budget_bytes = 1ULL << 30;
      config.seed = 100;
      GhbaCluster cluster(config, placement);
      ReconfigReport rep;
      ASSERT_TRUE(cluster.AddMds(&rep).ok());
      const bool hash = placement == ReplicaPlacement::kModularHash;
      EXPECT_EQ(rep.replicas_migrated, hash ? c.hash_placement : c.ghba)
          << "N=" << c.n << (hash ? " hash placement" : " G-HBA");
      EXPECT_TRUE(cluster.CheckInvariants().ok());
    }
  }
}

// M = 1 (which ValidateClusterConfig accepts) leaves nothing to split: a
// newcomer opens a group of its own and every MDS holds every other MDS's
// replica, through joins, leaves and failures.
TEST(GhbaJoinTest, JoinsAtMOneKeepInvariants) {
  GhbaCluster cluster(SmallConfig(4, 1));
  for (int i = 0; i < 3; ++i) {
    ReconfigReport rep;
    ASSERT_TRUE(cluster.AddMds(&rep).ok());
    EXPECT_FALSE(rep.group_split);
    ASSERT_TRUE(cluster.CheckInvariants().ok())
        << cluster.CheckInvariants().ToString();
  }
  ASSERT_TRUE(cluster.RemoveMds(2, nullptr).ok());
  ASSERT_TRUE(cluster.FailMds(5, nullptr).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();
  EXPECT_EQ(cluster.NumGroups(), cluster.NumMds());
  for (const MdsId id : cluster.alive()) {
    EXPECT_EQ(cluster.ThetaOf(id), cluster.NumMds() - 1u) << id;
  }
}

TEST_F(GhbaClusterTest, GroupSplitWhenAllFull) {
  // Fill every group to M=4: add MDSs until N % M == 0 and all groups full,
  // then one more must split a group.
  while (cluster_.NumMds() % 4 != 0) {
    ASSERT_TRUE(cluster_.AddMds(nullptr).ok());
  }
  const auto groups_before = cluster_.NumGroups();
  ReconfigReport rep;
  ASSERT_TRUE(cluster_.AddMds(&rep).ok());
  EXPECT_TRUE(rep.group_split);
  EXPECT_GT(cluster_.NumGroups(), groups_before);
  EXPECT_TRUE(cluster_.CheckInvariants().ok())
      << cluster_.CheckInvariants().ToString();
}

TEST_F(GhbaClusterTest, RemoveMdsRehomesFilesAndKeepsService) {
  PopulateFiles(300);
  const MdsId victim = 5;
  const auto victim_files = cluster_.node(victim).file_count();
  ReconfigReport rep;
  ASSERT_TRUE(cluster_.RemoveMds(victim, &rep).ok());
  EXPECT_EQ(cluster_.NumMds(), 11u);
  EXPECT_EQ(rep.files_migrated, victim_files);
  EXPECT_TRUE(cluster_.CheckInvariants().ok())
      << cluster_.CheckInvariants().ToString();
  for (int i = 0; i < 300; ++i) {
    const std::string path = "/data/file" + std::to_string(i);
    const auto r = cluster_.Lookup(path, 0);
    EXPECT_TRUE(r.found) << path;
    EXPECT_NE(r.home, victim);
  }
}

TEST_F(GhbaClusterTest, RemoveUnknownMdsFails) {
  EXPECT_EQ(cluster_.RemoveMds(99, nullptr).code(), StatusCode::kNotFound);
}

TEST_F(GhbaClusterTest, DeparturesTriggerMergeUntilStable) {
  // Shrink until group merging must kick in; invariants hold throughout.
  for (int i = 0; i < 8; ++i) {
    ReconfigReport rep;
    ASSERT_TRUE(cluster_.RemoveMds(cluster_.alive().front(), &rep).ok());
    ASSERT_TRUE(cluster_.CheckInvariants().ok())
        << "after departure " << i << ": "
        << cluster_.CheckInvariants().ToString();
  }
  EXPECT_EQ(cluster_.NumMds(), 4u);
  // 4 MDSs fit in a single group of M=4 after merging.
  EXPECT_EQ(cluster_.NumGroups(), 1u);
}

TEST_F(GhbaClusterTest, CannotRemoveLastMds) {
  while (cluster_.NumMds() > 1) {
    ASSERT_TRUE(cluster_.RemoveMds(cluster_.alive().front(), nullptr).ok());
  }
  EXPECT_EQ(cluster_.RemoveMds(cluster_.alive().front(), nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GhbaClusterTest, LookupStateBytesFarBelowFullImage) {
  // At replica-dominated scale, G-HBA charges ~(theta+1) = N/M = 3 filters
  // per MDS against the full image's 12 (Table 5's mechanism). Use enough
  // files that the fixed LRU/IDBFA overheads are noise.
  PopulateFiles(24000);
  const double full_image =
      24000.0 * cluster_.config().bits_per_file / 8.0;  // all files' bits
  for (const MdsId id : cluster_.alive()) {
    const auto bytes = cluster_.LookupStateBytes(id);
    EXPECT_LT(static_cast<double>(bytes), full_image * 0.75) << id;
  }
}

TEST_F(GhbaClusterTest, MessagesAccountedPerLookup) {
  PopulateFiles(100);
  const auto r = cluster_.Lookup("/data/file3", 0);
  EXPECT_EQ(cluster_.metrics().lookup_messages, r.messages);
}

// --- modular-hash replica placement (Section 2.4 strawman) ---

TEST(GhbaHashPlacementTest, JoinCausesMoreMigrationsThanIdbfa) {
  // N=24, M=5 -> groups {5,5,5,5,4}: the join lands in the group of 4
  // without splitting, isolating the placement policies' migration cost.
  ReconfigReport hash_rep, idbfa_rep;
  {
    GhbaCluster hash_cluster(SmallConfig(24, 5),
                             ReplicaPlacement::kModularHash);
    ASSERT_TRUE(hash_cluster.AddMds(&hash_rep).ok());
    EXPECT_TRUE(hash_cluster.CheckInvariants().ok())
        << hash_cluster.CheckInvariants().ToString();
  }
  {
    GhbaCluster idbfa_cluster(SmallConfig(24, 5),
                              ReplicaPlacement::kLeastLoaded);
    ASSERT_TRUE(idbfa_cluster.AddMds(&idbfa_rep).ok());
  }
  EXPECT_GT(hash_rep.replicas_migrated, idbfa_rep.replicas_migrated);
}

TEST(GhbaCooperativeLruTest, SharingSeedsGroupCaches) {
  auto config = SmallConfig(9, 3);
  config.cooperative_lru = true;
  GhbaCluster cluster(config);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster.CreateFile("/c/f" + std::to_string(i), Md(i), 0).ok());
  }
  cluster.FlushReplicas(0);
  cluster.metrics().Reset();
  // One lookup that escalates past L2 shares the discovery with the whole
  // group; afterwards, every member of that group answers at L1.
  const auto first = cluster.Lookup("/c/f5", 0);
  ASSERT_TRUE(first.found);
  if (first.served_level >= 3) {
    int l1 = 0;
    for (int i = 0; i < 60; ++i) {
      const auto r = cluster.Lookup("/c/f5", 0);
      ASSERT_TRUE(r.found);
      l1 += (r.served_level == 1);
    }
    // 1/3 of entries land in the seeded group and hit L1 immediately; the
    // rest seed their own groups as the loop goes. Expect a clear majority.
    EXPECT_GT(l1, 30);
  }
}

TEST(GhbaHashPlacementTest, SchemeNamesDiffer) {
  GhbaCluster a(SmallConfig(8, 4));
  GhbaCluster b(SmallConfig(8, 4), ReplicaPlacement::kModularHash);
  EXPECT_EQ(a.SchemeName(), "G-HBA");
  EXPECT_NE(a.SchemeName(), b.SchemeName());
}

// --- parameterized invariant sweep across cluster shapes ---

struct Shape {
  std::uint32_t n;
  std::uint32_t m;
};

class GhbaShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GhbaShapeTest, InvariantsAndLookupAcrossShapes) {
  const auto [n, m] = GetParam();
  GhbaCluster cluster(SmallConfig(n, m));
  ASSERT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/s/f" + std::to_string(i), Md(i), 0).ok());
  }
  cluster.FlushReplicas(0);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(cluster.Lookup("/s/f" + std::to_string(i), 0).found) << i;
  }
  // Churn: one join, one leave; service continues.
  ASSERT_TRUE(cluster.AddMds(nullptr).ok());
  ASSERT_TRUE(cluster.RemoveMds(cluster.alive().front(), nullptr).ok());
  ASSERT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(cluster.Lookup("/s/f" + std::to_string(i), 0).found) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GhbaShapeTest,
    ::testing::Values(Shape{2, 1}, Shape{5, 2}, Shape{9, 3}, Shape{10, 10},
                      Shape{13, 4}, Shape{30, 6}, Shape{31, 5}));

// --- M = 1: HBA (L1 on) and BFA (L1 off), the full global image per MDS ---

ClusterConfig HbaConfig(std::uint32_t n = 10) {
  ClusterConfig c = SmallConfig(n, /*m=*/1);
  c.seed = 9;
  return c;
}

GhbaCluster Bfa(const ClusterConfig& config) {
  return GhbaCluster(config, ReplicaPlacement::kLeastLoaded,
                     /*use_lru=*/false);
}

void ExpectFullMesh(const GhbaCluster& cluster) {
  EXPECT_TRUE(cluster.CheckInvariants().ok())
      << cluster.CheckInvariants().ToString();
  for (const MdsId id : cluster.alive()) {
    EXPECT_EQ(cluster.node(id).segment().size(), cluster.NumMds() - 1) << id;
  }
}

class HbaClusterTest : public ::testing::Test {
 protected:
  HbaClusterTest() : cluster_(HbaConfig()) {}

  void PopulateFiles(int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          cluster_.CreateFile("/hba/f" + std::to_string(i), Md(i), 0).ok());
    }
    cluster_.FlushReplicas(0);
    cluster_.metrics().Reset();
  }

  GhbaCluster cluster_;
};

TEST_F(HbaClusterTest, FullMeshInvariant) {
  EXPECT_TRUE(cluster_.CheckInvariants().ok());
  for (const MdsId id : cluster_.alive()) {
    EXPECT_EQ(cluster_.node(id).segment().size(), 9u);
  }
}

TEST_F(HbaClusterTest, LookupResolvesLocallyWithFreshReplicas) {
  PopulateFiles(400);
  int local = 0;
  for (int i = 0; i < 400; ++i) {
    const auto r = cluster_.Lookup("/hba/f" + std::to_string(i), 0);
    ASSERT_TRUE(r.found) << i;
    local += (r.served_level <= 2);
  }
  // Every MDS holds the full image: almost everything resolves at L1/L2.
  EXPECT_GT(local, 380);
}

TEST_F(HbaClusterTest, MissConcludedByGlobalMulticast) {
  PopulateFiles(50);
  const auto r = cluster_.Lookup("/absent", 0);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.served_level, 4);
}

TEST_F(HbaClusterTest, PublishBroadcastsToAll) {
  PopulateFiles(10);
  const std::uint64_t msgs_before = cluster_.metrics().update_messages;
  cluster_.PublishReplica(0, 0);
  // 2 messages (update + ack) per other MDS.
  EXPECT_EQ(cluster_.metrics().update_messages - msgs_before, 2u * 9u);
}

TEST_F(HbaClusterTest, AddMdsMigratesAllReplicas) {
  ReconfigReport rep;
  const auto nid = cluster_.AddMds(&rep);
  ASSERT_TRUE(nid.ok());
  // Fig. 11: HBA migrates all N existing replicas to the newcomer.
  EXPECT_EQ(rep.replicas_migrated, 10u);
  // Fig. 15: the newcomer exchanges filters with everyone (~2N messages).
  EXPECT_GE(rep.messages, 2u * 10u);
  EXPECT_TRUE(cluster_.CheckInvariants().ok());
}

TEST_F(HbaClusterTest, RemoveMdsKeepsMeshAndFiles) {
  PopulateFiles(200);
  ReconfigReport rep;
  ASSERT_TRUE(cluster_.RemoveMds(3, &rep).ok());
  EXPECT_TRUE(cluster_.CheckInvariants().ok());
  EXPECT_EQ(cluster_.NumMds(), 9u);
  for (int i = 0; i < 200; ++i) {
    const auto r = cluster_.Lookup("/hba/f" + std::to_string(i), 0);
    EXPECT_TRUE(r.found) << i;
    EXPECT_NE(r.home, 3u);
  }
}

TEST_F(HbaClusterTest, LookupStateScalesWithN) {
  PopulateFiles(500);
  // HBA per-MDS lookup state covers all files in the system.
  const double all_files_bytes =
      500 * cluster_.config().bits_per_file / 8.0;
  const auto bytes = cluster_.LookupStateBytes(cluster_.alive().front());
  EXPECT_GE(static_cast<double>(bytes), all_files_bytes * 0.9);
}

TEST_F(HbaClusterTest, LevelCountersSumToLookupsAcrossChurn) {
  PopulateFiles(200);
  std::uint64_t lookups = 0;
  const auto sweep = [&] {
    for (int i = 0; i < 200; i += 7) {
      (void)cluster_.Lookup("/hba/f" + std::to_string(i), 0);
      ++lookups;
    }
    (void)cluster_.Lookup("/absent/path", 0);
    ++lookups;
    ASSERT_EQ(cluster_.metrics().levels.total(), lookups);
  };
  sweep();
  ASSERT_TRUE(cluster_.AddMds(nullptr).ok());
  sweep();
  ASSERT_TRUE(cluster_.RemoveMds(2, nullptr).ok());
  sweep();
  const auto levels = cluster_.metrics().levels.Values();
  EXPECT_EQ(levels.l1 + levels.l2 + levels.l3 + levels.l4 + levels.miss,
            lookups);
  EXPECT_GT(levels.miss, 0u);
}

TEST_F(HbaClusterTest, LoneMemberIsChargedNoIdbfa) {
  PopulateFiles(300);
  for (int i = 0; i < 300; i += 3) {
    (void)cluster_.Lookup("/hba/f" + std::to_string(i), 0);  // fill the LRU
  }
  // Every MDS holds every other MDS's replica: its state is all published
  // filters (own included) plus its LRU array, and nothing for an IDBFA.
  std::uint64_t filters = 0;
  for (const MdsId id : cluster_.alive()) {
    filters += static_cast<std::uint64_t>(
        static_cast<double>(cluster_.node(id).file_count()) *
        cluster_.config().bits_per_file / 8.0);
  }
  for (const MdsId id : cluster_.alive()) {
    const std::uint64_t lru = cluster_.node(id).lru().MemoryBytes();
    EXPECT_EQ(cluster_.LookupStateBytes(id), filters + lru) << id;
  }
}

TEST_F(HbaClusterTest, FailMdsKeepsFullMesh) {
  PopulateFiles(200);
  const std::uint64_t lost = cluster_.node(4).file_count();
  ReconfigReport rep;
  ASSERT_TRUE(cluster_.FailMds(4, &rep).ok());
  EXPECT_EQ(cluster_.NumMds(), 9u);
  EXPECT_EQ(cluster_.lost_files(), lost);
  ExpectFullMesh(cluster_);
  std::uint64_t found = 0;
  for (int i = 0; i < 200; ++i) {
    const auto r = cluster_.Lookup("/hba/f" + std::to_string(i), 0);
    EXPECT_NE(r.home, 4u) << i;
    found += r.found;
  }
  EXPECT_EQ(found, 200u - lost);
  // A second failure and a join keep the mesh.
  ASSERT_TRUE(cluster_.FailMds(7, nullptr).ok());
  ASSERT_TRUE(cluster_.AddMds(nullptr).ok());
  ExpectFullMesh(cluster_);
}

TEST(BfaClusterTest, NoLruMeansNoL1Hits) {
  GhbaCluster bfa = Bfa(HbaConfig());
  EXPECT_EQ(bfa.SchemeName(), "BFA");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(bfa.CreateFile("/bfa/f" + std::to_string(i), Md(i), 0).ok());
  }
  bfa.FlushReplicas(0);
  bfa.metrics().Reset();
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(bfa.Lookup("/bfa/f" + std::to_string(i), 0).found);
    }
  }
  EXPECT_EQ(bfa.metrics().levels.l1, 0u);
  EXPECT_GT(bfa.metrics().levels.l2, 0u);
}

TEST(BfaClusterTest, LruIsNeverTouched) {
  for (const std::uint32_t m : {1u, 3u}) {
    auto config = HbaConfig();
    config.max_group_size = m;
    config.cooperative_lru = true;  // must not seed peers' LRUs either
    GhbaCluster cluster = Bfa(config);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          cluster.CreateFile("/bfa/f" + std::to_string(i), Md(i), 0).ok());
    }
    // Unpublished files resolve at L4, which with L1 on would cache them.
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(cluster.Lookup("/bfa/f" + std::to_string(i), 0).found);
      }
      (void)cluster.Lookup("/absent", 0);
    }
    cluster.FlushReplicas(0);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(cluster.Lookup("/bfa/f" + std::to_string(i), 0).found);
    }
    EXPECT_EQ(cluster.metrics().levels.l1, 0u) << "M=" << m;
    EXPECT_GT(cluster.metrics().levels.l4, 0u) << "M=" << m;
    for (const MdsId id : cluster.alive()) {
      EXPECT_EQ(cluster.node(id).lru().home_count(), 0u)
          << "M=" << m << " MDS " << id;
    }
  }
}

TEST(BfaClusterTest, SchemeNameFollowsGroupSizeAndL1) {
  EXPECT_EQ(GhbaCluster(HbaConfig()).SchemeName(), "HBA");
  EXPECT_EQ(Bfa(HbaConfig()).SchemeName(), "BFA");
  EXPECT_EQ(GhbaCluster(SmallConfig()).SchemeName(), "G-HBA");
}

TEST(HbaMemoryTest, SmallBudgetCausesDiskProbes) {
  auto config = HbaConfig();
  config.memory_budget_bytes = 2048;  // tiny: replicas must spill
  GhbaCluster cluster(config);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/big/f" + std::to_string(i), Md(i), 0).ok());
  }
  cluster.FlushReplicas(0);
  cluster.metrics().Reset();
  for (int i = 0; i < 100; ++i) {
    (void)cluster.Lookup("/big/f" + std::to_string(i), 0);
  }
  EXPECT_GT(cluster.metrics().disk_probes, 0u);
}

TEST(HbaMemoryTest, AmpleBudgetAvoidsDiskProbes) {
  GhbaCluster cluster(HbaConfig());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/ok/f" + std::to_string(i), Md(i), 0).ok());
  }
  cluster.FlushReplicas(0);
  cluster.metrics().Reset();
  for (int i = 0; i < 100; ++i) {
    (void)cluster.Lookup("/ok/f" + std::to_string(i), 0);
  }
  EXPECT_EQ(cluster.metrics().disk_probes, 0u);
}

}  // namespace
}  // namespace ghba

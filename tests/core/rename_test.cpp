// Directory-rename semantics across schemes (Table 1's "Directory
// Operations" axis): Bloom-filter schemes rename in place; pathname-hashed
// placement must migrate re-hashed files.
#include <gtest/gtest.h>

#include <string>

#include "core/ghba_cluster.hpp"
#include "core/hash_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig RenameConfig() {
  ClusterConfig c;
  c.num_mds = 8;
  c.max_group_size = 3;
  c.expected_files_per_mds = 1000;
  c.publish_after_mutations = 16;
  c.seed = 41;
  return c;
}

FileMetadata Md(std::uint64_t inode = 1) {
  FileMetadata md;
  md.inode = inode;
  return md;
}

template <typename Cluster>
void PopulateTwoDirs(Cluster& cluster) {
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/old/a/f" + std::to_string(i), Md(i), 0).ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/other/f" + std::to_string(i), Md(i + 1000), 0)
            .ok());
  }
  cluster.FlushReplicas(0);
  cluster.metrics().Reset();
}

template <typename Cluster>
void CheckRenamedVisibility(Cluster& cluster) {
  cluster.FlushReplicas(0);
  for (int i = 0; i < 120; ++i) {
    EXPECT_FALSE(cluster.Lookup("/old/a/f" + std::to_string(i), 0).found)
        << i;
    EXPECT_TRUE(cluster.Lookup("/new/a/f" + std::to_string(i), 0).found) << i;
  }
  // Unrelated directory untouched.
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(cluster.Lookup("/other/f" + std::to_string(i), 0).found) << i;
  }
}

TEST(RenameTest, GhbaRenamesWithoutMigration) {
  GhbaCluster cluster(RenameConfig());
  PopulateTwoDirs(cluster);
  ReconfigReport rep;
  const auto renamed = cluster.RenamePrefix("/old/", "/new/", 0, &rep);
  ASSERT_TRUE(renamed.ok()) << renamed.status().ToString();
  EXPECT_EQ(*renamed, 120u);
  EXPECT_EQ(rep.files_migrated, 0u);  // homes unchanged: the whole point
  CheckRenamedVisibility(cluster);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

TEST(RenameTest, HbaRenamesWithoutMigration) {
  auto config = RenameConfig();
  config.max_group_size = 1;  // HBA: G-HBA with groups of one
  GhbaCluster cluster(config);
  PopulateTwoDirs(cluster);
  ReconfigReport rep;
  const auto renamed = cluster.RenamePrefix("/old/", "/new/", 0, &rep);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(*renamed, 120u);
  EXPECT_EQ(rep.files_migrated, 0u);
  CheckRenamedVisibility(cluster);
}

TEST(RenameTest, HashPlacementMustMigrate) {
  HashPlacementCluster cluster(RenameConfig());
  PopulateTwoDirs(cluster);
  ReconfigReport rep;
  const auto renamed = cluster.RenamePrefix("/old/", "/new/", 0, &rep);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(*renamed, 120u);
  // Re-hashing sends ~ (N-1)/N of the files to a different server.
  EXPECT_GT(rep.files_migrated, 80u);
  CheckRenamedVisibility(cluster);
  EXPECT_TRUE(cluster.CheckInvariants().ok());
}

TEST(RenameTest, HomesPreservedByBloomSchemes) {
  GhbaCluster cluster(RenameConfig());
  PopulateTwoDirs(cluster);
  std::vector<MdsId> homes_before;
  for (int i = 0; i < 120; ++i) {
    homes_before.push_back(cluster.OracleHome("/old/a/f" + std::to_string(i)));
  }
  ASSERT_TRUE(cluster.RenamePrefix("/old/", "/new/", 0, nullptr).ok());
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(cluster.OracleHome("/new/a/f" + std::to_string(i)),
              homes_before[i])
        << i;
  }
}

TEST(RenameTest, CollisionRejectedAtomically) {
  GhbaCluster cluster(RenameConfig());
  ASSERT_TRUE(cluster.CreateFile("/old/x", Md(1), 0).ok());
  ASSERT_TRUE(cluster.CreateFile("/new/x", Md(2), 0).ok());
  const auto renamed = cluster.RenamePrefix("/old/", "/new/", 0, nullptr);
  EXPECT_EQ(renamed.status().code(), StatusCode::kAlreadyExists);
  // Nothing changed: both originals still resolve.
  cluster.FlushReplicas(0);
  EXPECT_TRUE(cluster.Lookup("/old/x", 0).found);
  EXPECT_TRUE(cluster.Lookup("/new/x", 0).found);
}

TEST(RenameTest, EmptyPrefixRejected) {
  GhbaCluster cluster(RenameConfig());
  EXPECT_EQ(cluster.RenamePrefix("", "/new/", 0, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.RenamePrefix("/old/", "", 0, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RenameTest, NoMatchesIsZeroNotError) {
  GhbaCluster cluster(RenameConfig());
  const auto renamed = cluster.RenamePrefix("/nothing/", "/new/", 0, nullptr);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(*renamed, 0u);
}

}  // namespace
}  // namespace ghba

// Crash-safe replica migration (the PR's tentpole): the three-phase
// handoff must move a replica without ever serving a wrong lookup, and a
// kill -9 at any phase boundary must recover to exactly the pre-flip or
// post-flip placement — phase 2 (the holder-map flip) is the
// commit point. The crash cases run parameterized over every phase so a
// new phase cannot ship without a crash test.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "rpc/prototype_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig MigrationConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 7;
  c.rpc.connect_timeout_ms = 150;
  c.rpc.attempt_timeout_ms = 150;
  c.rpc.call_budget_ms = 450;
  c.rpc.max_attempts = 3;
  c.rpc.retry_backoff_ms = 2;
  c.rpc.server_io_timeout_ms = 150;
  c.rpc.suspect_after = 3;
  c.rpc.ping_attempts = 3;
  c.rpc.ping_timeout_ms = 100;
  return c;
}

/// The migration actors, derived from the live topology: `member`'s group
/// holds a replica of the outsider `owner` on `from`; `to` is a different
/// member of the same group.
struct Actors {
  MdsId member = 0;
  MdsId owner = kInvalidMds;
  MdsId from = kInvalidMds;
  MdsId to = kInvalidMds;
};

Actors PickActors(PrototypeCluster& cluster) {
  Actors a;
  const auto view = cluster.MembershipOf(a.member);
  EXPECT_TRUE(view.ok());
  const auto alive = cluster.AliveServers();
  for (const MdsId id : alive) {
    if (std::find(view->begin(), view->end(), id) == view->end()) {
      a.owner = id;
      break;
    }
  }
  EXPECT_NE(a.owner, kInvalidMds);
  const auto from = cluster.HolderOf(a.member, a.owner);
  EXPECT_TRUE(from.ok());
  a.from = *from;
  for (const MdsId id : *view) {
    if (id != a.from) {
      a.to = id;
      break;
    }
  }
  EXPECT_NE(a.to, kInvalidMds);
  return a;
}

/// Every inserted file still resolves to its recorded home: the zero
/// wrong-lookups acceptance bar.
void ExpectAllLookupsCorrect(PrototypeCluster& cluster,
                             const std::map<std::string, MdsId>& home_of) {
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }
}

std::map<std::string, MdsId> BuildNamespace(PrototypeCluster& cluster,
                                            int files) {
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < files; ++i) {
    const auto path = "/mig/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(cluster.Insert(path, md).ok());
  }
  EXPECT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < files; ++i) {
    const auto path = "/mig/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) home_of[path] = r->home;
  }
  return home_of;
}

TEST(MigrationTest, CleanMigrationMovesPlacementAndKeepsLookupsCorrect) {
  PrototypeCluster cluster(MigrationConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 24);
  const auto a = PickActors(cluster);
  ASSERT_NE(a.from, a.to);

  const auto holds_before = cluster.HoldsReplica(a.from, a.owner);
  ASSERT_TRUE(holds_before.ok());
  EXPECT_TRUE(*holds_before);
  const std::uint64_t epoch_before = cluster.RoutingEpoch();

  ASSERT_TRUE(cluster.MigrateReplica(a.owner, a.to).ok());

  // Orchestrator routing and server-side truth agree on the new placement.
  const auto holder = cluster.HolderOf(a.member, a.owner);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(*holder, a.to);
  const auto holds_to = cluster.HoldsReplica(a.to, a.owner);
  ASSERT_TRUE(holds_to.ok());
  EXPECT_TRUE(*holds_to);
  const auto holds_from = cluster.HoldsReplica(a.from, a.owner);
  ASSERT_TRUE(holds_from.ok());
  EXPECT_FALSE(*holds_from);  // phase 3 retired the old copy

  // The flip bumped the routing epoch.
  EXPECT_GT(cluster.RoutingEpoch(), epoch_before);

  EXPECT_GE(cluster.metrics().replicas_migrated.value(), 1u);
  EXPECT_GT(cluster.metrics().reconfig_messages.value(), 0u);
  ExpectAllLookupsCorrect(cluster, home_of);

  // Migrating onto the current holder is a no-op, not an error.
  EXPECT_TRUE(cluster.MigrateReplica(a.owner, a.to).ok());
}

TEST(MigrationTest, RejectsUnknownActors) {
  PrototypeCluster cluster(MigrationConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto a = PickActors(cluster);
  EXPECT_FALSE(cluster.MigrateReplica(a.owner, /*to=*/99).ok());
  EXPECT_FALSE(cluster.MigrateReplica(/*owner=*/99, a.to).ok());
  // A group member's own filter is not an outsider replica to migrate.
  EXPECT_FALSE(cluster.MigrateReplica(a.to, a.to).ok());
}

class MigrationCrashTest
    : public ::testing::TestWithParam<FaultInjector::MigrationPhase> {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() / ("ghba_migcrash_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_P(MigrationCrashTest, CrashAtPhaseRecoversToAnEndpointPlacement) {
  const auto phase = GetParam();
  ClusterConfig config = MigrationConfig();
  config.storage.data_dir = dir_.string();
  config.storage.fsync = FsyncPolicy::kAlways;

  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 24);
  const auto a = PickActors(cluster);
  ASSERT_NE(a.from, a.to);

  injector.ArmMigrationCrash(phase);
  const Status failed = cluster.MigrateReplica(a.owner, a.to);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.ToString().find("migration crashed"), std::string::npos);

  // The commit point is the phase-2 flip: a crash before it leaves the
  // pre-migration placement, a crash at or after it the post-migration
  // one. Nothing in between exists to observe.
  const bool committed = phase != FaultInjector::MigrationPhase::kPrepare;
  const MdsId victim = committed ? a.from : a.to;
  const MdsId expected_holder = committed ? a.to : a.from;
  {
    const auto alive = cluster.AliveServers();
    EXPECT_NE(std::count(alive.begin(), alive.end(), victim), 0)
        << "crash must look like a machine failure, not a graceful leave";
    const auto holder = cluster.HolderOf(a.member, a.owner);
    ASSERT_TRUE(holder.ok());
    EXPECT_EQ(*holder, expected_holder);
  }

  // Restart the victim: fail-over + durable recovery + rejoin.
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);

  // Post-recovery audit: routing and server-side placement agree for every
  // outsider replica of the group, and no lookup is ever wrong.
  const auto view = cluster.MembershipOf(a.member);
  ASSERT_TRUE(view.ok());
  for (const MdsId owner : cluster.AliveServers()) {
    if (std::find(view->begin(), view->end(), owner) != view->end()) {
      continue;
    }
    const auto holder = cluster.HolderOf(a.member, owner);
    ASSERT_TRUE(holder.ok()) << "owner " << owner;
    const auto held = cluster.HoldsReplica(*holder, owner);
    ASSERT_TRUE(held.ok()) << "owner " << owner;
    EXPECT_TRUE(*held) << "owner " << owner << " holder " << *holder;
  }
  ExpectAllLookupsCorrect(cluster, home_of);
}

INSTANTIATE_TEST_SUITE_P(
    AllPhases, MigrationCrashTest,
    ::testing::Values(FaultInjector::MigrationPhase::kPrepare,
                      FaultInjector::MigrationPhase::kFlip,
                      FaultInjector::MigrationPhase::kRetire),
    [](const ::testing::TestParamInfo<FaultInjector::MigrationPhase>& info) {
      switch (info.param) {
        case FaultInjector::MigrationPhase::kPrepare:
          return "Prepare";
        case FaultInjector::MigrationPhase::kFlip:
          return "Flip";
        case FaultInjector::MigrationPhase::kRetire:
          return "Retire";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace ghba

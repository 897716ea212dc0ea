// Replica migration is a one-move diff run by the executor every
// reconfiguration shares: it must move a replica without ever serving a
// wrong lookup, and a power loss at any of the executor's crash points
// (reconfig.{fetch,install,drop}.<id>) followed by a restart must leave
// every server's segment array matching the orchestrator's holder map —
// replicas are memory-only, and the plan is adopted before execution. The
// migration crash cases run parameterized over every stage; a join, a
// leave and a split get the same restart-and-check case.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpc/prototype_cluster.hpp"
#include "testing/cluster_expectations.hpp"

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
/// wrong-lookups acceptance bar. Files homed on `drained` (a leaver) must
/// resolve anywhere else.
void ExpectAllLookupsCorrect(PrototypeCluster& cluster,
                             const std::map<std::string, MdsId>& home_of,
                             MdsId drained = kInvalidMds) {
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    if (home == drained) {
      EXPECT_NE(r->home, drained) << path;
    } else {
      EXPECT_EQ(r->home, home) << path;
    }
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
  const std::uint64_t messages_before =
      cluster.metrics().reconfig_messages.value();
  const std::uint64_t retries_before = cluster.health().TotalCounts().retries;

  ASSERT_TRUE(cluster.MigrateReplica(a.owner, a.to).ok());
  const std::uint64_t messages =
      cluster.metrics().reconfig_messages.value() - messages_before;
  const std::uint64_t retries =
      cluster.health().TotalCounts().retries - retries_before;

  // Orchestrator routing and server-side truth agree on the new placement.
  const auto holder = cluster.HolderOf(a.member, a.owner);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(*holder, a.to);
  const auto holds_to = cluster.HoldsReplica(a.to, a.owner);
  ASSERT_TRUE(holds_to.ok());
  EXPECT_TRUE(*holds_to);
  const auto holds_from = cluster.HoldsReplica(a.from, a.owner);
  ASSERT_TRUE(holds_from.ok());
  EXPECT_FALSE(*holds_from);  // the drop retired the old copy

  // The publish bumped the routing epoch.
  EXPECT_GT(cluster.RoutingEpoch(), epoch_before);

  // One kReplicaFetch batch to the old holder, one install batch to the
  // new one, one drop batch to the old one. A frame resent under load is a
  // retry, not an extra message.
  EXPECT_GE(cluster.metrics().replicas_migrated.value(), 1u);
  EXPECT_EQ(messages - retries, 3u) << retries << " retries";
  ExpectAllLookupsCorrect(cluster, home_of);

  // Migrating onto the current holder is a no-op, not an error.
  EXPECT_TRUE(cluster.MigrateReplica(a.owner, a.to).ok());
}

// An old holder that is down (crashed, not yet detected) cannot hand over
// its copy: the move installs the owner's own filter instead, and the
// migration succeeds.
TEST(MigrationTest, DeadOldHolderIsStoodInForByTheOwner) {
  PrototypeCluster cluster(MigrationConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 24);
  const auto a = PickActors(cluster);
  ASSERT_NE(a.from, a.to);

  ASSERT_TRUE(cluster.CrashServer(a.from).ok());
  const Status migrated = cluster.MigrateReplica(a.owner, a.to);
  ASSERT_TRUE(migrated.ok()) << migrated.ToString();
  const auto holder = cluster.HolderOf(a.member, a.owner);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(*holder, a.to);
  const auto holds_to = cluster.HoldsReplica(a.to, a.owner);
  ASSERT_TRUE(holds_to.ok());
  EXPECT_TRUE(*holds_to);
  for (const auto& [path, home] : home_of) {
    if (home == a.from) continue;  // lost with the crashed server
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }
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

/// A reconfiguration that hit an armed crash point: it failed as
/// Unavailable naming the point, the point fired, and the victim powered
/// off like a machine failure, still listed alive.
void ExpectCrashedAt(const Status& failed, const std::string& tag,
                     const FaultInjector& injector, PrototypeCluster& cluster,
                     MdsId victim) {
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.ToString().find(tag), std::string::npos)
      << failed.ToString();
  EXPECT_FALSE(injector.HasArmedCrashPoints());
  const auto alive = cluster.AliveServers();
  EXPECT_NE(std::count(alive.begin(), alive.end(), victim), 0)
      << "crash must look like a machine failure, not a graceful leave";
}

/// Restart the victim: fail-over + durable recovery + rejoin. The new
/// incarnation comes up with no replicas and receives exactly what the
/// holder map assigns it; no lookup is ever wrong.
void RestartAndCheck(PrototypeCluster& cluster, MdsId victim,
                     const std::map<std::string, MdsId>& home_of,
                     MdsId drained = kInvalidMds) {
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);
  ExpectSegmentsMatchHolderMap(cluster);
  ExpectAllLookupsCorrect(cluster, home_of, drained);
}

/// A durable cluster with an injector attached, in a per-test data dir.
class CrashFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" +
                       info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() / ("ghba_migcrash_" + name);
    std::filesystem::remove_all(dir_);
    ClusterConfig config = MigrationConfig();
    config.storage.data_dir = dir_.string();
    config.storage.fsync = FsyncPolicy::kAlways;
    // Default deadlines: an fsync'd call must not time out on a loaded
    // machine; only the crash point may fail a call here.
    config.rpc = RpcOptions{};
    cluster_ = std::make_unique<PrototypeCluster>(config, ProtoScheme::kGhba);
    cluster_->set_fault_injector(&injector_);
    ASSERT_TRUE(cluster_->Start().ok());
    home_of_ = BuildNamespace(*cluster_, 24);
  }
  void TearDown() override {
    cluster_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  FaultInjector injector_;
  std::unique_ptr<PrototypeCluster> cluster_;
  std::map<std::string, MdsId> home_of_;
};

class MigrationCrashTest : public CrashFixture,
                           public ::testing::WithParamInterface<MoveCrash> {};

TEST_P(MigrationCrashTest, RestartLandsOnTheNewHolder) {
  PrototypeCluster& cluster = *cluster_;
  const auto a = PickActors(cluster);
  ASSERT_NE(a.from, a.to);
  const MdsId victim = GetParam() == MoveCrash::kInstallTo ? a.to : a.from;
  const std::string tag = ReconfigCrashPoint(StageOf(GetParam()), victim);

  injector_.ArmCrashPoint(tag);
  ExpectCrashedAt(cluster.MigrateReplica(a.owner, a.to), tag, injector_,
                  cluster, victim);
  // The plan is adopted before the diff runs: whichever stage the crash
  // hit, routing and a restart follow the post-migration holder.
  const auto holder = cluster.HolderOf(a.member, a.owner);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(*holder, a.to);

  RestartAndCheck(cluster, victim, home_of_);
}

INSTANTIATE_TEST_SUITE_P(AllStages, MigrationCrashTest,
                         ::testing::Values(MoveCrash::kFetchFrom,
                                           MoveCrash::kInstallTo,
                                           MoveCrash::kDropFrom),
                         MoveCrashName);

using ReconfigCrashTest = CrashFixture;

TEST_F(ReconfigCrashTest, JoinCrashAtNewcomerInstallRecovers) {
  PrototypeCluster& cluster = *cluster_;
  // No slot is free to recycle, so the newcomer takes the next id. The
  // join splits a full group and the newcomer receives its share of the
  // replicas in the install round.
  const auto newcomer = static_cast<MdsId>(cluster.NumServers());
  const std::string tag = ReconfigCrashPoint("install", newcomer);

  injector_.ArmCrashPoint(tag);
  ExpectCrashedAt(cluster.AddServer().status(), tag, injector_, cluster,
                  newcomer);
  EXPECT_TRUE(cluster.MembershipOf(newcomer).ok());

  RestartAndCheck(cluster, newcomer, home_of_);
}

TEST_F(ReconfigCrashTest, LeaveCrashAtOutsiderDropStillDrains) {
  PrototypeCluster& cluster = *cluster_;
  // Server 1 leaves; its files drain to its co-members. An outsider drops
  // the leaver's filter in the drop round and loses power there.
  const MdsId leaver = 1;
  const auto view = cluster.MembershipOf(leaver);
  ASSERT_TRUE(view.ok());
  ASSERT_GT(view->size(), 1u);
  MdsId victim = kInvalidMds;
  for (const MdsId id : cluster.AliveServers()) {
    if (std::find(view->begin(), view->end(), id) == view->end()) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidMds);
  const std::string tag = ReconfigCrashPoint("drop", victim);

  injector_.ArmCrashPoint(tag);
  ExpectCrashedAt(cluster.RemoveServer(leaver).status(), tag, injector_,
                  cluster, victim);
  // The leaver is out of the plan, so it is out of the cluster too: a
  // second leave or a kill of its id finds no such server.
  const auto alive = cluster.AliveServers();
  EXPECT_EQ(std::count(alive.begin(), alive.end(), leaver), 0);
  EXPECT_EQ(cluster.RemoveServer(leaver).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cluster.KillServer(leaver).code(), StatusCode::kNotFound);

  RestartAndCheck(cluster, victim, home_of_, /*drained=*/leaver);
}

TEST_F(ReconfigCrashTest, SplitCrashAtTailInstallRecovers) {
  PrototypeCluster& cluster = *cluster_;
  // Both groups are full, so the split takes the first, server 0's. Its
  // tail member forms the new group, which installs the replicas of its
  // old co-members.
  const auto view = cluster.MembershipOf(0);
  ASSERT_TRUE(view.ok());
  const MdsId victim = view->back();
  const std::string tag = ReconfigCrashPoint("install", victim);

  injector_.ArmCrashPoint(tag);
  ExpectCrashedAt(cluster.SplitLargestGroup(), tag, injector_, cluster,
                  victim);
  const auto tail = cluster.MembershipOf(victim);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->size(), 1u);

  RestartAndCheck(cluster, victim, home_of_);
}

}  // namespace
}  // namespace ghba

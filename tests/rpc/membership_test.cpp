// Online reconfiguration: the routing epoch lives only in the orchestrator
// and strictly increases with every topology change; a G-HBA join touches
// only the joined group and one holder per other group; batched writes ride
// one frame per kMaxBatchFrames requests; a recycled MdsId starts with
// clean health state (the RemoveServer/KillServer regression); a failed
// join still publishes its newcomer; a leave whose export fails keeps the
// leaver and its files; a drain skips a receiver that crashed in the
// leave's drop round; durable servers restart under a
// bumped epoch with every file; membership churn under live lookups never
// serves a wrong answer; departures merge groups that fit within M; M = 1
// joins open a group of their own; and seeded join/leave/kill/restart/split
// sequences keep every segment array equal to the planner's holder map on
// both schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "rpc/prototype_cluster.hpp"
#include "testing/cluster_expectations.hpp"

namespace ghba {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 11;
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

TEST(MembershipTest, TopologyChangesBumpTheEpoch) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  std::uint64_t last = cluster.RoutingEpoch();

  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok());
  EXPECT_GT(added->messages, 0u);
  EXPECT_GT(cluster.RoutingEpoch(), last);
  last = cluster.RoutingEpoch();

  ASSERT_TRUE(cluster.RemoveServer(added->id).ok());
  EXPECT_GT(cluster.RoutingEpoch(), last);
  last = cluster.RoutingEpoch();

  ASSERT_TRUE(cluster.SplitLargestGroup().ok());
  EXPECT_GT(cluster.RoutingEpoch(), last);
  EXPECT_GT(cluster.metrics().reconfig_messages.value(), 0u);
}

TEST(MembershipTest, RecycledIdStartsWithCleanHealthState) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  // Crash-style death: the victim's kDead verdict survives fail-over (it
  // documents why the files vanished)...
  const MdsId victim = 1;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  EXPECT_EQ(cluster.health().state(victim), PeerState::kDead);

  // ...but the next AddServer recycles the freed slot and must not inherit
  // the corpse's verdict or cached connection.
  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added->id, victim) << "lowest free id is recycled";
  EXPECT_EQ(cluster.health().state(victim), PeerState::kHealthy);

  // The recycled server serves traffic immediately.
  FileMetadata md;
  md.inode = 77;
  ASSERT_TRUE(cluster.Insert("/recycled/probe", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/recycled/probe");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);

  // Graceful leave clears the verdict immediately: RemoveServer is an
  // administrative action, not a failure.
  ASSERT_TRUE(cluster.RemoveServer(victim).ok());
  EXPECT_EQ(cluster.health().state(victim), PeerState::kHealthy);
}

// A join whose install batch fails still publishes the started newcomer.
// Insert draws homes from every started server, so an unpublished one
// would take files that the L4 multicast never asks, and their lookups
// would answer NotFound.
TEST(MembershipTest, FailedJoinStillPublishesTheNewcomer) {
  const ClusterConfig config = SmallConfig();
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kHba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  // At M = 1 a join sends every other server one kBatch: the install of
  // the newcomer's filter. Mangle server 0's on every attempt.
  const std::uint16_t port = cluster.ServerPorts()[0];
  for (std::uint32_t i = 0; i < config.rpc.max_attempts; ++i) {
    injector.ArmFrameFault(port, static_cast<std::uint16_t>(MsgType::kBatch),
                           FaultInjector::FrameAction::kCorrupt);
  }
  const auto added = cluster.AddServer();
  ASSERT_FALSE(added.ok());
  EXPECT_FALSE(injector.HasArmedFrameFaults());
  const auto newcomer = static_cast<MdsId>(config.num_mds);
  ASSERT_EQ(cluster.AliveServers().size(), config.num_mds + 1);

  int on_newcomer = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string path = "/failed-join/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path, md).ok());
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    if (r->found && r->home == newcomer) ++on_newcomer;
  }
  EXPECT_GT(on_newcomer, 0);
}

// A leave whose kExportFiles fails on a live leaver exported nothing: the
// leaver still holds every file it homes. The leave is undone as a join of
// the same id, so those files stay reachable and a later leave drains them.
TEST(MembershipTest, FailedExportKeepsTheLeaverAndItsFiles) {
  const ClusterConfig config = SmallConfig();
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const MdsId leaver = 1;
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < 48; ++i) {
    const std::string path = "/failed-export/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path, md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  int on_leaver = 0;
  for (int i = 0; i < 48; ++i) {
    const std::string path = "/failed-export/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok() && r->found) << path;
    home_of[path] = r->home;
    if (r->home == leaver) ++on_leaver;
  }
  ASSERT_GT(on_leaver, 0);

  const std::uint16_t port = cluster.ServerPorts()[leaver];
  for (std::uint32_t i = 0; i < config.rpc.max_attempts; ++i) {
    injector.ArmFrameFault(port,
                           static_cast<std::uint16_t>(MsgType::kExportFiles),
                           FaultInjector::FrameAction::kCorrupt);
  }
  ASSERT_FALSE(cluster.RemoveServer(leaver).ok());
  EXPECT_FALSE(injector.HasArmedFrameFaults());
  const auto alive = cluster.AliveServers();
  EXPECT_EQ(std::count(alive.begin(), alive.end(), leaver), 1);
  EXPECT_TRUE(cluster.MembershipOf(leaver).ok());
  ExpectSegmentsMatchHolderMap(cluster);
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }

  // The retried leave drains every file to a survivor.
  ASSERT_TRUE(cluster.RemoveServer(leaver).ok());
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_NE(r->home, leaver) << path;
  }
}

// A drain receiver that loses power in the leave's drop round gets no
// share of the leaver's files: kExportFiles clears the leaver, so a share
// sent to a stopped receiver would be lost. The running co-members take
// every file, and each one answers after the receiver restarts.
TEST(MembershipTest, DrainSkipsAReceiverCrashedInTheDropRound) {
  ClusterConfig config = SmallConfig();
  // Default deadlines: only the crash point may fail a call here.
  config.rpc = RpcOptions{};
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const MdsId leaver = 1;
  const auto view = cluster.MembershipOf(leaver);
  ASSERT_TRUE(view.ok());
  ASSERT_GT(view->size(), 2u);  // a receiver survives the crash
  const MdsId receiver = view->front() != leaver ? view->front() : view->back();
  std::vector<std::string> drained;
  for (int i = 0; i < 48; ++i) {
    const std::string path = "/drain-crash/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path, md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 48; ++i) {
    const std::string path = "/drain-crash/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok() && r->found) << path;
    if (r->home == leaver) drained.push_back(path);
  }
  ASSERT_GT(drained.size(), 1u);

  injector.ArmCrashPoint("reconfig.drop." + std::to_string(receiver));
  EXPECT_EQ(cluster.RemoveServer(leaver).status().code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(injector.HasArmedCrashPoints());
  ASSERT_TRUE(cluster.RestartServer(receiver).ok());
  for (const std::string& path : drained) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_NE(r->home, receiver) << path;
  }
}

// The paper's light-weight join (Sec. 4, Fig. 15): when the target group
// has room, the join touches the group it enters and one replica holder in
// each other group. Every other server receives no frame at all.
TEST(MembershipTest, JoinLeavesServersOutsideTheGroupAndItsHoldersUntouched) {
  ClusterConfig config = SmallConfig();
  config.num_mds = 8;  // groups {0,1,2} {3,4,5} {6,7}: the last has room
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto frames_in = [&cluster](MdsId id) {
    const auto stats = cluster.FetchStats(id);
    EXPECT_TRUE(stats.ok()) << id;
    return stats.ok() ? stats->frames_in : 0;
  };
  std::map<MdsId, std::uint64_t> before;
  for (const MdsId id : cluster.AliveServers()) before[id] = frames_in(id);

  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(cluster.NumGroups(), 3u) << "the join must not split a group";
  const auto joined = cluster.MembershipOf(added->id);
  ASSERT_TRUE(joined.ok());
  std::vector<MdsId> touched = *joined;
  for (const auto& [id, frames] : before) {
    if (std::find(joined->begin(), joined->end(), id) != joined->end()) {
      continue;
    }
    const auto holder = cluster.HolderOf(id, added->id);
    ASSERT_TRUE(holder.ok()) << id;
    touched.push_back(*holder);
  }
  int untouched = 0;
  for (const auto& [id, frames] : before) {
    if (std::find(touched.begin(), touched.end(), id) != touched.end()) {
      continue;
    }
    ++untouched;
    // The only new frame is this second kStatsSnapshot itself.
    EXPECT_EQ(frames_in(id) - frames, 1u) << "server " << id;
  }
  EXPECT_EQ(untouched, 4);
}

TEST(MembershipTest, RestartTouchesOnlyItsGroupAndOneHolderPerOtherGroup) {
  ClusterConfig config = SmallConfig();
  config.num_mds = 8;  // groups {0,1,2} {3,4,5} {6,7}
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto frames_in = [&cluster](MdsId id) {
    const auto stats = cluster.FetchStats(id);
    EXPECT_TRUE(stats.ok()) << id;
    return stats.ok() ? stats->frames_in : 0;
  };
  const MdsId victim = 4;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  std::map<MdsId, std::uint64_t> before;
  for (const MdsId id : cluster.AliveServers()) before[id] = frames_in(id);

  ASSERT_TRUE(cluster.RestartServer(victim).ok());
  ASSERT_EQ(cluster.NumGroups(), 3u) << "the rejoin must not split a group";
  const auto rejoined = cluster.MembershipOf(victim);
  ASSERT_TRUE(rejoined.ok());
  std::vector<MdsId> touched = *rejoined;
  for (const auto& [id, frames] : before) {
    if (std::find(rejoined->begin(), rejoined->end(), id) !=
        rejoined->end()) {
      continue;
    }
    const auto holder = cluster.HolderOf(id, victim);
    ASSERT_TRUE(holder.ok()) << id;
    touched.push_back(*holder);
  }
  int untouched = 0;
  for (const auto& [id, frames] : before) {
    if (std::find(touched.begin(), touched.end(), id) != touched.end()) {
      continue;
    }
    ++untouched;
    // The rejoin reaches no one else: the only new frame is this
    // second kStatsSnapshot itself.
    EXPECT_EQ(frames_in(id) - frames, 1u) << "server " << id;
  }
  EXPECT_EQ(untouched, 3);
}

// More than one request to a peer always rides kBatch: n inserts cost
// ceil(n / kMaxBatchFrames) frames plus whatever the transport retried.
TEST(MembershipTest, BatchedInsertsCostOneFramePerBatchWindow) {
  ClusterConfig config = SmallConfig();
  config.num_mds = 1;
  // Default deadlines: a full 4,096-insert frame takes longer than the
  // tight chaos-test budget on a sanitizer build.
  config.rpc = RpcOptions{};
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const std::size_t n = kMaxBatchFrames + 1;
  std::vector<std::pair<std::string, FileMetadata>> files;
  files.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FileMetadata md;
    md.inode = i;
    files.emplace_back("/batch/f" + std::to_string(i), md);
  }
  const std::uint64_t frames_before = cluster.TotalFramesIn();
  ASSERT_TRUE(cluster.InsertBatch(files).ok());
  const std::uint64_t frames = cluster.TotalFramesIn() - frames_before;
  const std::uint64_t retries = cluster.health().TotalCounts().retries;
  EXPECT_LE(frames, 2u + retries);
  const auto stats = cluster.FetchStats(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->files, n);
}

TEST(MembershipTest, DurableRestartBumpsTheEpochAndServesEveryFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ghba_membership_durable";
  fs::remove_all(dir);
  ClusterConfig config = SmallConfig();
  config.num_mds = 4;
  config.max_group_size = 2;
  config.storage.data_dir = dir.string();
  config.storage.fsync = FsyncPolicy::kAlways;
  // Default deadlines: an fsync'd call must not time out on a loaded
  // machine.
  config.rpc = RpcOptions{};
  const int kFiles = 24;
  const auto path_of = [](int i) { return "/durable/f" + std::to_string(i); };
  const auto expect_every_file = [&](PrototypeCluster& cluster) {
    for (int i = 0; i < kFiles; ++i) {
      const auto r = cluster.Lookup(path_of(i));
      ASSERT_TRUE(r.ok()) << path_of(i) << ": " << r.status().ToString();
      EXPECT_TRUE(r->found) << path_of(i);
    }
  };

  {
    PrototypeCluster cluster(config, ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    for (int i = 0; i < kFiles; ++i) {
      FileMetadata md;
      md.inode = static_cast<std::uint64_t>(i);
      ASSERT_TRUE(cluster.Insert(path_of(i), md).ok());
    }
    ASSERT_TRUE(cluster.PublishAll().ok());
    ASSERT_TRUE(cluster.AddServer().ok());

    // A killed durable server loses nothing: its restart recovers every
    // file it held, and the rejoin strictly advances the routing epoch so
    // no client keeps a placement cached from before the outage.
    ASSERT_TRUE(cluster.KillServer(1).ok());
    const std::uint64_t epoch_before = cluster.RoutingEpoch();
    const auto info = cluster.RestartServer(1);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->durable);
    EXPECT_GT(cluster.RoutingEpoch(), epoch_before);
    expect_every_file(cluster);
    cluster.Stop();
  }

  // A new orchestrator over the same data dir starts a fresh epoch line of
  // its own; every server recovers its files from disk.
  {
    PrototypeCluster cluster(config, ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    EXPECT_GE(cluster.RoutingEpoch(), 1u);
    ASSERT_TRUE(cluster.PublishAll().ok());
    expect_every_file(cluster);
    cluster.Stop();
  }
  fs::remove_all(dir);
}

TEST(MembershipTest, AdaptivityTickSamplesAndActsOnTheLiveCluster) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  FileMetadata md;
  md.inode = 1;
  ASSERT_TRUE(cluster.Insert("/adapt/f", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Lookup("/adapt/f").ok());  // warm the counters
  }

  {
    AdaptivityController disabled{AdaptivityOptions{}};
    const auto decision = cluster.AdaptivityTick(disabled);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->action, AdaptiveAction::kNone);
    EXPECT_EQ(cluster.NumServers(), 6u);
  }
  {
    AdaptivityOptions options;
    options.enabled = true;
    options.min_lookup_samples = 1u << 30;  // cold-counter gate holds
    AdaptivityController gated{options};
    const auto decision = cluster.AdaptivityTick(gated);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->action, AdaptiveAction::kNone);
    EXPECT_EQ(decision->reason, "too few lookup samples");
  }
  {
    // A barely-loaded six-server cluster is reconfigurable: the controller
    // either shrinks it (underload) or tightens groups toward the measured
    // optimum — and the tick must have *applied* whichever it chose.
    AdaptivityOptions options;
    options.enabled = true;
    options.min_lookup_samples = 1;
    options.min_servers = 2;
    AdaptivityController controller{options};
    const std::size_t alive_before = cluster.AliveServers().size();
    const std::size_t groups_before = cluster.NumGroups();
    const auto decision = cluster.AdaptivityTick(controller);
    ASSERT_TRUE(decision.ok());
    EXPECT_NE(decision->action, AdaptiveAction::kNone) << decision->reason;
    EXPECT_TRUE(cluster.AliveServers().size() != alive_before ||
                cluster.NumGroups() != groups_before)
        << decision->reason;
    // Lookups stay correct across the applied reconfiguration.
    const auto r = cluster.Lookup("/adapt/f");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
  }
}

// The acceptance scenario: MDSs join and leave every few churn rounds
// while a client thread keeps firing lookups. Graceful leaves drain files
// to survivors, so every lookup must come back found — a not-found (or a
// transport error other than the bounded kUnavailable verdict) is a wrong
// answer and fails the test.
TEST(MembershipTest, ChurnUnderLiveLookupsServesEveryFile) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  const int kFiles = 30;
  const auto path_of = [](int i) { return "/churn/f" + std::to_string(i); };
  for (int i = 0; i < kFiles; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path_of(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> transient{0};
  std::atomic<int> lookups{0};
  std::thread load([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto r = cluster.Lookup(path_of(i % kFiles));
      ++i;
      ++lookups;
      if (!r.ok()) {
        // Bounded degradation is legal under churn; anything else is not.
        if (r.status().code() != StatusCode::kUnavailable) ++wrong;
        ++transient;
        continue;
      }
      if (!r->found) ++wrong;
    }
  });

  // Membership churn: every round one server leaves gracefully (files
  // drain) and one joins, while the load thread keeps interleaving.
  for (int round = 0; round < 3; ++round) {
    const auto alive = cluster.AliveServers();
    ASSERT_GT(alive.size(), 1u);
    ASSERT_TRUE(cluster.RemoveServer(alive.back()).ok()) << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(cluster.AddServer().ok()) << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();

  EXPECT_EQ(wrong.load(), 0) << "wrong lookups under membership churn";
  EXPECT_GT(lookups.load(), 0);
  EXPECT_GT(cluster.metrics().reconfig_messages.value(), 0u);
  EXPECT_GT(cluster.RoutingEpoch(), 1u);

  // Steady state after the storm: everything is served first try.
  for (int i = 0; i < kFiles; ++i) {
    const auto r = cluster.Lookup(path_of(i));
    ASSERT_TRUE(r.ok()) << path_of(i) << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path_of(i);
  }
}

// The planner's merge rule (Section 3.2): a departure that leaves two
// groups fitting within M merges them, for a graceful leave and a crash.
TEST(MembershipTest, DepartureMergesGroupsThatFitWithinM) {
  ClusterConfig config = SmallConfig();
  config.num_mds = 4;  // {0,1} {2,3}; losing 0 leaves {1} + {2,3} <= 3
  for (const bool graceful : {true, false}) {
    PrototypeCluster cluster(config, ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_EQ(cluster.NumGroups(), 2u);
    FileMetadata md;
    md.inode = 9;
    ASSERT_TRUE(cluster.Insert("/merge/f", md).ok());
    ASSERT_TRUE(cluster.PublishAll().ok());
    const auto home = cluster.Lookup("/merge/f");
    ASSERT_TRUE(home.ok() && home->found);
    const MdsId victim = home->home == 0 ? 1 : 0;
    if (graceful) {
      ASSERT_TRUE(cluster.RemoveServer(victim).ok());
    } else {
      ASSERT_TRUE(cluster.KillServer(victim).ok());
    }
    EXPECT_EQ(cluster.NumGroups(), 1u) << (graceful ? "leave" : "kill");
    const auto members = cluster.MembershipOf(2);
    ASSERT_TRUE(members.ok());
    EXPECT_EQ(members->size(), 3u);
    ExpectSegmentsMatchHolderMap(cluster);
    const auto r = cluster.Lookup("/merge/f");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
  }
}

// max_group_size = 1 is a valid configuration: with nothing to split, a
// newcomer opens a group of its own and holds every other server's
// replica, as under HBA.
TEST(MembershipTest, JoinAtGroupSizeOneOpensAGroupOfItsOwn) {
  ClusterConfig config = SmallConfig();
  config.num_mds = 3;
  config.max_group_size = 1;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_EQ(cluster.NumGroups(), 3u);
  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(cluster.NumGroups(), 4u);
  ExpectSegmentsMatchHolderMap(cluster);
  FileMetadata md;
  md.inode = 3;
  ASSERT_TRUE(cluster.Insert("/one/f", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/one/f");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

// Seeded join/leave/kill/restart/split sequences (split on G-HBA only; HBA
// is the planner's M = 1): after every step every live server's segment
// array matches the holder map and every file not lost to a kill is found.
class MembershipSequenceTest
    : public ::testing::TestWithParam<std::tuple<ProtoScheme, std::uint64_t>> {
};

TEST_P(MembershipSequenceTest, EveryStepKeepsSegmentsAndFiles) {
  const auto [scheme, seed] = GetParam();
  ClusterConfig config = SmallConfig();
  config.num_mds = 7;
  config.seed = seed;
  PrototypeCluster cluster(config, scheme);
  ASSERT_TRUE(cluster.Start().ok());
  std::map<std::string, bool> files;  // path -> still expected
  for (int i = 0; i < 24; ++i) {
    const std::string path = "/seq/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path, md).ok());
    files[path] = true;
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  Rng rng(seed);
  MdsId killed = kInvalidMds;
  for (int step = 0; step < 12; ++step) {
    const auto alive = cluster.AliveServers();
    std::string what;
    if (killed != kInvalidMds) {
      what = "restart " + std::to_string(killed);
      ASSERT_TRUE(cluster.RestartServer(killed).ok()) << what;
      killed = kInvalidMds;
    } else {
      const auto dice = rng.NextBounded(4);
      const MdsId victim = alive[rng.NextBounded(alive.size())];
      if (dice == 0 || alive.size() <= 3) {
        const auto added = cluster.AddServer();
        ASSERT_TRUE(added.ok()) << added.status().ToString();
        what = "join " + std::to_string(added->id);
      } else if (dice == 1) {
        what = "leave " + std::to_string(victim);
        ASSERT_TRUE(cluster.RemoveServer(victim).ok()) << what;
      } else if (dice == 2) {
        what = "kill " + std::to_string(victim);
        for (auto& [path, expected] : files) {
          const auto r = cluster.Lookup(path);
          ASSERT_TRUE(r.ok()) << path;
          if (r->found && r->home == victim) expected = false;
        }
        ASSERT_TRUE(cluster.KillServer(victim).ok()) << what;
        killed = victim;
      } else {
        what = "split";
        const Status s = cluster.SplitLargestGroup();
        if (scheme == ProtoScheme::kHba) {
          EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
        }
      }
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    ExpectSegmentsMatchHolderMap(cluster);
    ASSERT_TRUE(cluster.PublishAll().ok());
    for (const auto& [path, expected] : files) {
      if (!expected) continue;
      const auto r = cluster.Lookup(path);
      ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
      EXPECT_TRUE(r->found) << path;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MembershipSequenceTest,
    ::testing::Combine(::testing::Values(ProtoScheme::kGhba,
                                         ProtoScheme::kHba),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == ProtoScheme::kGhba
                             ? "Ghba"
                             : "Hba") +
             "Seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ghba

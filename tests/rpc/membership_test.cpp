// Online reconfiguration: the routing epoch lives only in the orchestrator
// and strictly increases with every topology change; a G-HBA join touches
// only the joined group and one holder per other group; batched writes ride
// one frame per kMaxBatchFrames requests; a recycled MdsId starts with
// clean health state (the RemoveServer/KillServer regression); durable
// servers restart under a bumped epoch with every file; and membership
// churn under live lookups never serves a wrong answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rpc/prototype_cluster.hpp"

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
  c.rpc.server_io_timeout_ms = 150;
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

}  // namespace
}  // namespace ghba

// The concurrent read path (rpc/router.hpp): scatter-gather rounds (the
// entry and its group in one, L4 in another) with a per-peer fallback,
// backoff that blocks no other caller, the exact L4 verdict under faults,
// and the v6 cascade in which every server a probe reaches answers for
// its own store at most once per lookup.
#include "rpc/router.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "hash/fnv.hpp"
#include "rpc/prototype_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig RouterConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 31;
  c.rpc.server_shards = 2;
  c.rpc.connect_timeout_ms = 150;
  c.rpc.attempt_timeout_ms = 150;
  c.rpc.call_budget_ms = 900;
  c.rpc.max_attempts = 3;
  c.rpc.retry_backoff_ms = 2;
  c.rpc.suspect_after = 3;
  c.rpc.ping_attempts = 2;
  c.rpc.ping_timeout_ms = 100;
  return c;
}

FileMetadata Md(std::uint64_t inode = 1) {
  FileMetadata md;
  md.inode = inode;
  return md;
}

std::uint16_t TypeOf(MsgType type) { return static_cast<std::uint16_t>(type); }

/// `count` paths that ShardOfPath places on `shard` of `num_shards`.
std::vector<std::string> PathsOnShard(std::uint32_t shard,
                                      std::uint32_t num_shards, int count) {
  std::vector<std::string> paths;
  for (int i = 0; static_cast<int>(paths.size()) < count; ++i) {
    std::string path = "/route/s" + std::to_string(shard) + "/f" +
                       std::to_string(i);
    if (ShardOfPath(path, num_shards) == shard) paths.push_back(path);
  }
  return paths;
}

/// `name` summed over every live server's registry.
std::uint64_t ServeSum(PrototypeCluster& cluster, const char* name) {
  std::uint64_t total = 0;
  for (const MdsId id : cluster.AliveServers()) {
    const auto stats = cluster.FetchStats(id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) total += stats->metrics.CounterOr(name);
  }
  return total;
}

TEST(RouterTest, BackoffSleepBlocksNoOtherLookup) {
  ClusterConfig config = RouterConfig();
  // A call into the stalled shard: three 100 ms attempts around backoff
  // sleeps of 200-600 ms and 400-1200 ms, so at least 900 ms in all.
  config.rpc.attempt_timeout_ms = 100;
  config.rpc.retry_backoff_ms = 400;
  config.rpc.call_budget_ms = 5000;
  // The slow peer stays trusted: no heart-beat, no fail-over.
  config.rpc.suspect_after = 1000;
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const auto files = PathsOnShard(0, config.rpc.server_shards, 24);
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_TRUE(cluster.Insert(files[i], Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Server 1's shard 1 stops answering. Every lookup below is for a path
  // on shard 0, so no cascade ever waits on the stalled shard; only the
  // flaky thread's verifies do, sleeping through their retry backoff.
  const MdsId slow = 1;
  const std::string stuck = PathsOnShard(1, config.rpc.server_shards, 1)[0];
  injector.StallShard(slow, 1);
  std::atomic<bool> stop{false};
  std::atomic<int> slow_calls{0};
  std::thread flaky([&] {
    while (!stop.load()) {
      EXPECT_FALSE(cluster.VerifyOn(slow, stuck).ok());
      ++slow_calls;
    }
  });

  // The flaky call sleeps from the timeout it records to the retry it
  // records on waking. Only its attempts fail, and each of its calls times
  // out all three, so a finished call leaves 3 timeouts, 2 retries and one
  // failure, and the call in flight is asleep exactly when it has one
  // timeout more than retries and fewer than three.
  using Counts = PeerHealthTracker::CumulativeCounts;
  const auto asleep = [](const Counts& c) {
    const std::uint64_t timeouts = c.timeouts - 3 * c.failures;
    const std::uint64_t retries = c.retries - 2 * c.failures;
    return timeouts < 3 && timeouts == retries + 1;
  };
  const auto same = [](const Counts& a, const Counts& b) {
    return a.timeouts == b.timeouts && a.retries == b.retries &&
           a.failures == b.failures;
  };
  // A lookup that starts and ends on the same asleep counts ran inside one
  // backoff sleep. If the sleep blocked lookups, none could.
  int lookups = 0;
  int inside_a_sleep = 0;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (inside_a_sleep < 10 && std::chrono::steady_clock::now() < give_up) {
    const Counts before = cluster.health().TotalCounts();
    const auto r = cluster.Lookup(files[lookups % files.size()]);
    const Counts after = cluster.health().TotalCounts();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found);
    ++lookups;
    if (asleep(before) && same(before, after)) ++inside_a_sleep;
  }
  stop.store(true);
  flaky.join();
  injector.UnstallShard(slow, 1);

  EXPECT_EQ(inside_a_sleep, 10) << "of " << lookups << " lookups";
  EXPECT_GE(slow_calls.load(), 1);
  // The flaky verifies really retried: two retries per call.
  EXPECT_GE(cluster.health().TotalCounts().retries, 2u);
}

class RouterFanOutFaultTest
    : public ::testing::TestWithParam<FaultInjector::FrameAction> {};

TEST_P(RouterFanOutFaultTest, FaultedGroupProbeIsRetriedNotMissed) {
  FaultInjector injector;
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kFiles = 60;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(cluster.Insert("/fan/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Aim the fault at server 1's next kGroupProbe. L1-L3 share one round,
  // so the probe also rides lookups that end at L1 or L2. The lookup that
  // sends it must still resolve by L3 (every group covers every outsider,
  // so a present file never needs L4) and must count the retry that
  // recovered the probe.
  const std::uint16_t member_port = cluster.ServerPorts()[1];
  int fired = 0;
  for (int i = 0; i < kFiles; ++i) {
    if (fired < 4 && !injector.HasArmedFrameFaults()) {
      injector.ArmFrameFault(member_port, TypeOf(MsgType::kGroupProbe),
                             GetParam());
    }
    const std::string path = "/fan/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << path;
    const auto at_home = cluster.VerifyOn(r->home, path);
    ASSERT_TRUE(at_home.ok());
    EXPECT_TRUE(*at_home) << path;
    if (fired == 4 || injector.HasArmedFrameFaults()) continue;
    ++fired;
    EXPECT_LE(r->served_level, 3) << path;
    EXPECT_GE(r->trace.retries, 1u) << path;
  }
  EXPECT_GT(fired, 0);
  EXPECT_GE(cluster.health().TotalCounts().retries,
            static_cast<std::uint64_t>(fired));
  // A transient fault never costs a peer its membership.
  EXPECT_EQ(cluster.AliveServers().size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, RouterFanOutFaultTest,
    ::testing::Values(FaultInjector::FrameAction::kDrop,
                      FaultInjector::FrameAction::kCorrupt,
                      FaultInjector::FrameAction::kTruncate));

TEST(RouterTest, CrashedPeerAtL4IsUnavailableNeverNotFound) {
  ClusterConfig config = RouterConfig();
  config.rpc.suspect_after = 1000;  // keep the crash undetected
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/l4/present", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());

  ASSERT_TRUE(cluster.CrashServer(4).ok());
  for (int i = 0; i < 4; ++i) {
    const auto r = cluster.Lookup("/l4/absent" + std::to_string(i));
    ASSERT_FALSE(r.ok()) << "a peer L4 could not probe may hold the path";
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  }

  // Once the crash is failed over, the survivors' verdict is exact again.
  ASSERT_TRUE(cluster.KillServer(4).ok());
  const auto r = cluster.Lookup("/l4/absent0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->found);
}

TEST(RouterTest, MutationPreludesTeachNoL1Hint) {
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (const char* path : {"/touch/read", "/touch/gone", "/touch/src"}) {
    ASSERT_TRUE(cluster.Insert(path, Md()).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // A read that finds its path teaches the entry server's L1 once.
  const auto read = cluster.Lookup("/touch/read");
  ASSERT_TRUE(read.ok() && read->found);
  ASSERT_TRUE(cluster.Quiesce().ok());
  EXPECT_EQ(ServeSum(cluster, "serve.lru_touches"), 1u);

  // Mutations locate paths they are about to move: no hint.
  ASSERT_TRUE(cluster.Unlink("/touch/gone").ok());
  ASSERT_TRUE(cluster.Rename("/touch/src", "/touch/dst").ok());
  EXPECT_EQ(cluster.CreateExclusive("/touch/read", Md()).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(cluster.Quiesce().ok());
  EXPECT_EQ(ServeSum(cluster, "serve.lru_touches"), 1u);
}

TEST(RouterTest, L4AnswersWithTheLowestHoldingId) {
  // Full mesh without PublishAll: every replica is stale, so a lookup
  // entering anywhere but a holder falls through to the L4 multicast.
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kHba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto ports = cluster.ServerPorts();
  constexpr int kPaths = 12;
  for (int i = 0; i < kPaths; ++i) {
    for (const MdsId holder : {MdsId{4}, MdsId{2}}) {
      auto conn = TcpConnection::Connect(ports[holder]);
      ASSERT_TRUE(conn.ok());
      ASSERT_TRUE(
          conn->SendFrame(EncodeInsert("/dup/f" + std::to_string(i), Md(i)))
              .ok());
      ASSERT_TRUE(conn->RecvFrame().ok());
    }
  }
  int l4 = 0;
  for (int i = 0; i < kPaths; ++i) {
    const auto r = cluster.Lookup("/dup/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found);
    if (r->served_level != 4) continue;  // entered on a holder
    ++l4;
    // Same answer as a walk over the ids in order.
    EXPECT_EQ(r->home, 2u);
  }
  EXPECT_GT(l4, 0);
}

TEST(RouterTest, MissProbesAtL4OnlyServersThatDidNotAnswerAbsent) {
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster.Insert("/miss/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  // Six servers in two groups of three: the entry and its two peers answer
  // "not here" for their own stores, so only the other group's three
  // servers get the global probe.
  for (int i = 0; i < 8; ++i) {
    const std::string ghost = "/miss/ghost" + std::to_string(i);
    const std::uint64_t global0 = ServeSum(cluster, "serve.global_probes");
    const std::uint64_t verifies0 = ServeSum(cluster, "serve.verifies");
    const auto r = cluster.Lookup(ghost);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->found);
    EXPECT_EQ(r->served_level, 4);
    EXPECT_EQ(ServeSum(cluster, "serve.global_probes") - global0, 3u)
        << ghost;
    EXPECT_EQ(ServeSum(cluster, "serve.verifies") - verifies0, 0u) << ghost;
  }
}

TEST(RouterTest, GroupPeerHolderResolvesAtL3WithoutVerify) {
  // One group of three: every home is the entry or one of its peers, and
  // no replica of an outsider exists to name a candidate.
  ClusterConfig config = RouterConfig();
  config.num_mds = 3;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kFiles = 24;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(cluster.Insert("/peer/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  int at_l3 = 0;
  for (int i = 0; i < kFiles; ++i) {
    const std::string path = "/peer/f" + std::to_string(i);
    const std::uint64_t verifies0 = ServeSum(cluster, "serve.verifies");
    const std::uint64_t probes0 = ServeSum(cluster, "serve.group_probes");
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found) << path;
    const std::uint64_t verifies = ServeSum(cluster, "serve.verifies");
    const std::uint64_t probes = ServeSum(cluster, "serve.group_probes");
    const auto at_home = cluster.VerifyOn(r->home, path);
    ASSERT_TRUE(at_home.ok());
    EXPECT_TRUE(*at_home) << path;
    // An L1 hint that named a wrong server costs a verify; otherwise the
    // answer is the entry's or a peer's own verdict.
    if (r->served_level != 3 || r->trace.false_route) continue;
    ++at_l3;
    EXPECT_EQ(verifies - verifies0, 0u) << path;
    EXPECT_EQ(probes - probes0, 2u) << path;
  }
  EXPECT_GT(at_l3, 0);
}

TEST(RouterTest, CascadeLevelsMatchTheSequentialWalk) {
  // Six servers in groups of three on a fixed seed: published files, files
  // inserted after PublishAll (no replica names them) and absent paths.
  // Every lookup's level and home are those of the entry-first L1 -> L2 ->
  // L3 -> L4 walk, lookup by lookup; Quiesce lands each lookup's kTouchLru
  // before the next one starts.
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 18; ++i) {
    ASSERT_TRUE(cluster.Insert("/pin/pub" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        cluster.Insert("/pin/new" + std::to_string(i), Md(100 + i)).ok());
  }
  std::vector<std::string> paths;
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 18; ++i) {
      paths.push_back("/pin/pub" + std::to_string(i));
    }
    for (int i = 0; i < 6; ++i) {
      paths.push_back("/pin/new" + std::to_string(i));
    }
    for (int i = 0; i < 4; ++i) {
      paths.push_back("/pin/ghost" + std::to_string(i));
    }
  }
  // "level:home", "-" for no home: pub0..17, new0..5, ghost0..3, twice.
  const std::vector<std::string> walk = {
      "3:0", "3:0", "3:4", "2:1", "3:3", "2:1",
      "3:3", "3:3", "2:0", "2:3", "3:5", "3:4",
      "2:1", "3:3", "3:5", "3:1", "3:3", "3:3",
      "2:5", "3:1", "4:3", "4:5", "3:1", "3:0",
      "4:-", "4:-", "4:-", "4:-",
      "2:0", "3:0", "3:4", "1:1", "3:3", "3:1",
      "1:3", "1:3", "3:0", "3:3", "2:5", "3:4",
      "3:1", "3:3", "2:5", "2:1", "3:3", "2:3",
      "4:5", "4:1", "3:3", "1:5", "1:1", "3:0",
      "4:-", "4:-", "4:-", "4:-",
  };
  ASSERT_EQ(walk.size(), paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto r = cluster.Lookup(paths[i]);
    ASSERT_TRUE(r.ok()) << paths[i] << ": " << r.status().ToString();
    ASSERT_TRUE(cluster.Quiesce().ok());
    const std::string home =
        r->home == kInvalidMds ? "-" : std::to_string(r->home);
    EXPECT_EQ(std::to_string(r->served_level) + ":" + home, walk[i])
        << "lookup " << i << " of " << paths[i];
  }
}

TEST(RouterTest, ShedProbeLeavesTheServerInTheL4Set) {
  // One server, one shard, every path hot and every queued request an
  // overload, so a probe handled with another request queued behind it
  // is shed.
  ClusterConfig config = RouterConfig();
  config.num_mds = 1;
  config.rpc.server_shards = 1;
  config.rpc.attempt_timeout_ms = 5000;
  config.rpc.call_budget_ms = 10000;
  config.hotspot.shed_enabled = true;
  config.hotspot.hot_threshold = 1;
  config.hotspot.shed_queue_depth = 0;
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/shed/hot", Md()).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  auto filler = TcpConnection::Connect(cluster.ServerPorts()[0]);
  ASSERT_TRUE(filler.ok());

  // Park the shard until the lookup's probe and one more request are
  // queued on it.
  injector.StallShard(0, 0);
  const std::uint64_t frames0 = cluster.TotalFramesIn();
  Result<LookupOutcome> r = Status::Unavailable("not run");
  std::thread lookup([&] { r = cluster.Lookup("/shed/hot", /*lease=*/true); });
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.TotalFramesIn() == frames0 &&
         std::chrono::steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(filler->SendFrame(EncodeHeader(MsgType::kPing)).ok());
  while (cluster.TotalFramesIn() < frames0 + 2 &&
         std::chrono::steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  injector.UnstallShard(0, 0);
  lookup.join();
  ASSERT_TRUE(filler->RecvFrame().ok());

  // The shed probe is no answer: the server is not verified again (its
  // L2 hit names only itself), stays in the L4 set, and the exact global
  // probe finds the path there; the lease then takes one kLeaseGrant.
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->found);
  EXPECT_EQ(r->home, 0u);
  EXPECT_EQ(r->served_level, 4);
  EXPECT_EQ(r->lease_ttl_ms, config.hotspot.lease_ttl_ms);
  EXPECT_EQ(ServeSum(cluster, "serve.shed_requests"), 1u);
  EXPECT_EQ(ServeSum(cluster, "serve.global_probes"), 1u);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_requests"), 1u);
  // That kLeaseGrant is the only verify.
  EXPECT_EQ(ServeSum(cluster, "serve.verifies"), 1u);
}

/// Per-type request counts and the lookup levels reported, summed over
/// the servers in `ids`. Quiesce first for the one-way reports to land.
struct ServeCounts {
  std::uint64_t local = 0;   ///< kLookupLocal
  std::uint64_t group = 0;   ///< kGroupProbe
  std::uint64_t global = 0;  ///< kGlobalProbe
  std::uint64_t verifies = 0;  ///< kVerify and kLeaseGrant
  std::uint64_t prepares = 0;
  std::uint64_t miss = 0;
  std::uint64_t levels = 0;  ///< l1 + l2 + l3 + l4 + miss
};

ServeCounts CountServes(PrototypeCluster& cluster,
                        const std::vector<MdsId>& ids) {
  ServeCounts c;
  for (const MdsId id : ids) {
    const auto stats = cluster.FetchStats(id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (!stats.ok()) continue;
    const auto& m = stats->metrics;
    c.local += m.CounterOr(metrics_names::kServeLocalLookups);
    c.group += m.CounterOr(metrics_names::kServeGroupProbes);
    c.global += m.CounterOr(metrics_names::kServeGlobalProbes);
    c.verifies += m.CounterOr(metrics_names::kServeVerifies);
    c.prepares += m.CounterOr(metrics_names::kServeTxnPrepares);
    c.miss += m.CounterOr(metrics_names::kLookupsMiss);
    c.levels += m.CounterOr(metrics_names::kLookupsL1) +
                m.CounterOr(metrics_names::kLookupsL2) +
                m.CounterOr(metrics_names::kLookupsL3) +
                m.CounterOr(metrics_names::kLookupsL4) +
                m.CounterOr(metrics_names::kLookupsMiss);
  }
  return c;
}

/// Where CreateExclusive and a rename's dst land: the hash home over the
/// id-sorted live set, as the orchestrator computes it.
MdsId HashHome(PrototypeCluster& cluster, const std::string& path) {
  const auto alive = cluster.AliveServers();
  return alive[Fnv1a64(path) % alive.size()];
}

/// One lookup's serve deltas, per server of `ids` and summed.
struct LookupServes {
  std::vector<ServeCounts> per_server;
  ServeCounts total;
};

LookupServes ServesOfLookup(PrototypeCluster& cluster,
                            const std::vector<MdsId>& ids,
                            const std::string& path,
                            Result<LookupOutcome>* outcome) {
  std::vector<ServeCounts> before;
  EXPECT_TRUE(cluster.Quiesce().ok());
  for (const MdsId id : ids) before.push_back(CountServes(cluster, {id}));
  *outcome = cluster.Lookup(path);
  EXPECT_TRUE(cluster.Quiesce().ok());
  LookupServes out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const ServeCounts after = CountServes(cluster, {ids[i]});
    ServeCounts d;
    d.local = after.local - before[i].local;
    d.group = after.group - before[i].group;
    d.global = after.global - before[i].global;
    d.verifies = after.verifies - before[i].verifies;
    out.per_server.push_back(d);
    out.total.local += d.local;
    out.total.group += d.group;
    out.total.global += d.global;
    out.total.verifies += d.verifies;
  }
  return out;
}

TEST(RouterTest, OneRoundReachesTheWholeGroup) {
  // Six servers in two groups of three. Files inserted after PublishAll
  // are in no replica: only their home's own answer finds them.
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        cluster.Insert("/round/new" + std::to_string(i), Md(100 + i)).ok());
  }
  const auto alive = cluster.AliveServers();

  // The entry is the server that got the kLookupLocal, its group the
  // servers that got a kGroupProbe in the same round. A path one of those
  // peers holds costs that one round and nothing else.
  int peer_held = 0;
  for (int i = 0; i < 24; ++i) {
    const std::string path = "/round/new" + std::to_string(i);
    Result<LookupOutcome> r = Status::Unavailable("not run");
    const LookupServes s = ServesOfLookup(cluster, alive, path, &r);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    ASSERT_TRUE(r->found) << path;
    EXPECT_EQ(s.total.local, 1u) << path;
    EXPECT_EQ(s.total.group, 2u) << path;
    if (r->home >= alive.size() || s.per_server[r->home].group != 1) continue;
    ++peer_held;
    EXPECT_EQ(s.total.verifies, 0u) << path;
    EXPECT_EQ(s.total.global, 0u) << path;
  }
  EXPECT_GT(peer_held, 0);

  // A miss: the round hears "absent" from the entry's whole group, so the
  // global probe goes only to the three servers outside it.
  for (int i = 0; i < 6; ++i) {
    const std::string ghost = "/round/ghost" + std::to_string(i);
    Result<LookupOutcome> r = Status::Unavailable("not run");
    const LookupServes s = ServesOfLookup(cluster, alive, ghost, &r);
    ASSERT_TRUE(r.ok()) << ghost << ": " << r.status().ToString();
    EXPECT_FALSE(r->found) << ghost;
    EXPECT_EQ(s.total.global, 3u) << ghost;
    for (std::size_t j = 0; j < alive.size(); ++j) {
      const bool in_round =
          s.per_server[j].local == 1 || s.per_server[j].group == 1;
      EXPECT_EQ(s.per_server[j].global, in_round ? 0u : 1u)
          << ghost << " on " << alive[j];
    }
  }

  // M = 1 (HBA): the round is the entry's kLookupLocal alone.
  PrototypeCluster hba(RouterConfig(), ProtoScheme::kHba);
  ASSERT_TRUE(hba.Start().ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(hba.Insert("/hba/pub" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(hba.PublishAll().ok());
  ASSERT_TRUE(hba.Insert("/hba/new", Md(100)).ok());
  std::vector<std::string> paths = {"/hba/new", "/hba/ghost"};
  for (int i = 0; i < 12; ++i) paths.push_back("/hba/pub" + std::to_string(i));
  for (const std::string& path : paths) {
    ASSERT_TRUE(hba.Lookup(path).ok()) << path;
  }
  ASSERT_TRUE(hba.Quiesce().ok());
  const ServeCounts c = CountServes(hba, hba.AliveServers());
  EXPECT_EQ(c.local, paths.size());
  EXPECT_EQ(c.group, 0u);
}

TEST(RouterTest, ExistenceChecksGoStraightToTheExactLevel) {
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster.Insert("/exact/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto alive = cluster.AliveServers();

  // CreateExclusive of an absent path: the check rides the prepare's
  // round, one kTxnPrepare to the hash home and one kGlobalProbe to every
  // other live server, and nothing else, reported as one miss.
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/exact/new" + std::to_string(i);
    ASSERT_TRUE(cluster.Quiesce().ok());
    const ServeCounts before = CountServes(cluster, alive);
    ASSERT_TRUE(cluster.CreateExclusive(path, Md()).ok()) << path;
    ASSERT_TRUE(cluster.Quiesce().ok());
    const ServeCounts after = CountServes(cluster, alive);
    EXPECT_EQ(after.local - before.local, 0u) << path;
    EXPECT_EQ(after.group - before.group, 0u) << path;
    EXPECT_EQ(after.global - before.global, alive.size() - 1) << path;
    EXPECT_EQ(after.prepares - before.prepares, 1u) << path;
    EXPECT_EQ(after.levels - before.levels, 1u) << path;
    EXPECT_EQ(after.miss - before.miss, 1u) << path;
  }

  // A rename with an absent dst: src's cascade takes the one kLookupLocal
  // and, in the same round, a kGroupProbe to each of the entry's two peers.
  // The dst check adds global probes to every server but dst's home, which
  // gets the insert prepare. Two outcomes per rename, the dst check's a
  // miss.
  for (int i = 0; i < 8; ++i) {
    const std::string src = "/exact/f" + std::to_string(i);
    ASSERT_TRUE(cluster.Quiesce().ok());
    const ServeCounts before = CountServes(cluster, alive);
    ASSERT_TRUE(cluster.Rename(src, "/exact/moved" + std::to_string(i)).ok())
        << src;
    ASSERT_TRUE(cluster.Quiesce().ok());
    const ServeCounts after = CountServes(cluster, alive);
    EXPECT_EQ(after.local - before.local, 1u) << src;
    EXPECT_EQ(after.group - before.group, 2u) << src;
    EXPECT_GE(after.global - before.global, alive.size() - 1) << src;
    EXPECT_EQ(after.prepares - before.prepares, 2u) << src;
    EXPECT_EQ(after.levels - before.levels, 2u) << src;
    EXPECT_EQ(after.miss - before.miss, 1u) << src;
  }
}

TEST(RouterTest, ExistenceCheckFindsAPathHeldOffItsHashHome) {
  PrototypeCluster cluster(RouterConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/exact/src", Md(1)).ok());
  // "/exact/taken" lives on the server after its hash home, inserted
  // there directly and never published: no replica names it, only the
  // exact level can find it.
  const std::string taken = "/exact/taken";
  const MdsId holder = (HashHome(cluster, taken) + 1) % 6;
  auto conn = TcpConnection::Connect(cluster.ServerPorts()[holder]);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(EncodeInsert(taken, Md(2))).ok());
  ASSERT_TRUE(conn->RecvFrame().ok());

  EXPECT_EQ(cluster.Rename("/exact/src", taken).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cluster.CreateExclusive(taken, Md(3)).code(),
            StatusCode::kAlreadyExists);
  // Both refused in the insert prepare's round: the rename's two
  // prepares and the create's one were all aborted, nothing is in doubt.
  EXPECT_EQ(ServeSum(cluster, metrics_names::kServeTxnPrepares), 3u);
  EXPECT_EQ(ServeSum(cluster, metrics_names::kServeTxnAborts), 3u);
  const auto src = cluster.Lookup("/exact/src");
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  EXPECT_TRUE(src->found);
  const auto held = cluster.VerifyOn(holder, taken);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
}

TEST(RouterTest, CrashedPeerLeavesTheExistenceCheckToThePrepareVote) {
  ClusterConfig config = RouterConfig();
  config.rpc.suspect_after = 1000;  // keep the crash undetected
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const std::string taken = "/exact/taken";
  const std::string fresh = "/exact/fresh";
  ASSERT_TRUE(cluster.CreateExclusive(taken, Md(1)).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  MdsId victim = 0;
  while (victim == HashHome(cluster, taken) ||
         victim == HashHome(cluster, fresh)) {
    ++victim;
  }
  std::vector<MdsId> live;
  for (const MdsId id : cluster.AliveServers()) {
    if (id != victim) live.push_back(id);
  }
  ASSERT_TRUE(cluster.CrashServer(victim).ok());

  // The crashed server's pooled connections cannot drain, but Quiesce
  // reports it down instead of failing: every live connection drained.
  QuiesceReport report;
  ASSERT_TRUE(cluster.Quiesce(&report).ok());
  EXPECT_EQ(report.down, std::vector<MdsId>{victim});
  EXPECT_EQ(report.drained, live);

  // The check cannot hear "absent" from the victim, so for the fresh path
  // it decides nothing: the hash home's prepare vote, in the same round,
  // accepts it.
  std::uint64_t prepares = CountServes(cluster, live).prepares;
  ASSERT_TRUE(cluster.CreateExclusive(fresh, Md(2)).ok());
  EXPECT_EQ(CountServes(cluster, live).prepares - prepares, 1u);
  // A live holder's "held" is exact whoever else is down: the taken path
  // is refused in the same round, here by its home's own vote.
  prepares = CountServes(cluster, live).prepares;
  EXPECT_EQ(cluster.CreateExclusive(taken, Md(3)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(CountServes(cluster, live).prepares - prepares, 1u);
  for (const std::string& path : {taken, fresh}) {
    const auto held = cluster.VerifyOn(HashHome(cluster, path), path);
    ASSERT_TRUE(held.ok()) << path;
    EXPECT_TRUE(*held) << path;
  }
}

}  // namespace
}  // namespace ghba

// The concurrent read path (rpc/router.hpp): scatter-gather L3/L4 with a
// per-peer fallback, backoff that blocks no other caller, the exact L4
// verdict under faults, and the v6 cascade in which every server a probe
// reaches answers for its own store at most once per lookup.
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
  // Start measuring once the flaky call is past its first attempt.
  const auto wait_until = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
  while (cluster.health().TotalCounts().retries == 0 &&
         std::chrono::steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(cluster.health().TotalCounts().retries, 0u);

  // The bound is the shortest backoff sleep: a lookup that waited through
  // one fails it, while an unblocked lookup takes a few milliseconds even
  // under a sanitizer.
  const auto kBound = std::chrono::milliseconds(200);
  auto slowest = std::chrono::steady_clock::duration::zero();
  int lookups = 0;
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < end) {
    const auto start = std::chrono::steady_clock::now();
    const auto r = cluster.Lookup(files[lookups % files.size()]);
    slowest = std::max(slowest, std::chrono::steady_clock::now() - start);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found);
    ++lookups;
  }
  stop.store(true);
  flaky.join();
  injector.UnstallShard(slow, 1);

  EXPECT_LT(slowest, kBound)
      << std::chrono::duration_cast<std::chrono::milliseconds>(slowest)
             .count()
      << " ms";
  EXPECT_GT(lookups, 10);
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

  // Aim the fault at server 1's next kGroupProbe. The lookup that sends it
  // must still resolve by L3 (every group covers every outsider, so a
  // present file never needs L4) and must count the retry that recovered
  // the probe.
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
    EXPECT_EQ(r->served_level, 3) << path;
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
  std::uint64_t prepares = 0;
  std::uint64_t upper = 0;   ///< lookups served at L3 or L4 (found)
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
    c.prepares += m.CounterOr(metrics_names::kServeTxnPrepares);
    c.upper += m.CounterOr(metrics_names::kLookupsL3) +
               m.CounterOr(metrics_names::kLookupsL4);
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

  // A rename with an absent dst: src's cascade takes the one kLookupLocal,
  // and a kGroupProbe to the entry's two peers only if it got past L2.
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
    EXPECT_EQ(after.group - before.group, 2 * (after.upper - before.upper))
        << src;
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

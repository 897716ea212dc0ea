// The client front tier (ghba::Client): the leased, epoch-invalidated
// lookup cache must never serve a stale positive — not after its TTL, not
// after an unlink through the facade, and not across a replica migration
// (crashed at any phase or clean). Time is injected so lease expiry is
// tested by advancing a counter, not by sleeping. Concurrent clients must
// never get a wrong answer while the topology churns underneath them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "testing/cluster_expectations.hpp"

namespace ghba {
namespace {

ClusterConfig ClientTestConfig() {
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
  c.hotspot.lease_ttl_ms = 500;
  return c;
}

/// A facade whose clock is a counter the test advances by hand.
struct FakeClockClient {
  std::uint64_t now_ms = 1000;
  std::unique_ptr<Client> client;

  explicit FakeClockClient(PrototypeCluster* cluster, ClientOptions options = {}) {
    options.clock_ms = [this] { return now_ms; };
    client = Client::Attach(cluster, std::move(options));
  }
  Client* operator->() { return client.get(); }
  Client& operator*() { return *client; }
};

std::map<std::string, MdsId> BuildNamespace(PrototypeCluster& cluster,
                                            int files) {
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < files; ++i) {
    const auto path = "/cli/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(cluster.Insert(path, md).ok());
  }
  EXPECT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < files; ++i) {
    const auto path = "/cli/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) home_of[path] = r->home;
  }
  return home_of;
}

std::uint64_t CacheCounter(PrototypeCluster& cluster, const std::string& name) {
  return cluster.ClientSnapshot().CounterOr(name);
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

TEST(ClientCacheTest, SecondLookupIsServedFromCache) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 8);
  FakeClockClient client(&cluster);

  const auto first = client->Lookup("/cli/f0");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->found);
  EXPECT_FALSE(first->from_cache);
  ASSERT_EQ(client->CacheSize(), 1u);

  const auto second = client->Lookup("/cli/f0");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->found);
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->served_level, 0u);
  EXPECT_EQ(second->home, first->home);
  EXPECT_GE(CacheCounter(cluster, "cache.hits"), 1u);
}

TEST(ClientCacheTest, LeaseExpiresUnderClockAdvance) {
  const ClusterConfig config = ClientTestConfig();
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  FakeClockClient client(&cluster);

  ASSERT_TRUE(client->Lookup("/cli/f1").ok());
  // Just inside the TTL: still a hit.
  client.now_ms += config.hotspot.lease_ttl_ms - 1;
  const auto fresh = client->Lookup("/cli/f1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->from_cache);

  // One more millisecond and the lease is dead: the cascade runs again and
  // the answer is re-leased.
  client.now_ms += 1;
  const auto expired = client->Lookup("/cli/f1");
  ASSERT_TRUE(expired.ok());
  EXPECT_TRUE(expired->found);
  EXPECT_FALSE(expired->from_cache);
  EXPECT_GE(CacheCounter(cluster, "cache.expired_lease"), 1u);
  EXPECT_EQ(client->CacheSize(), 1u);  // re-leased, not abandoned
}

TEST(ClientCacheTest, UnlinkNeverLeavesAStalePositive) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  FakeClockClient client(&cluster);

  ASSERT_TRUE(client->Lookup("/cli/f2").ok());
  ASSERT_EQ(client->CacheSize(), 1u);
  ASSERT_TRUE(client->Unlink("/cli/f2").ok());
  EXPECT_EQ(client->CacheSize(), 0u);

  // Immediately after the unlink returns — zero staleness window for the
  // unlinking client, however fresh the lease was.
  const auto r = client->Lookup("/cli/f2");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_GE(CacheCounter(cluster, "cache.invalidations"), 1u);
}

TEST(ClientCacheTest, OtherClientsStalenessIsBoundedByTheLeaseTtl) {
  const ClusterConfig config = ClientTestConfig();
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  FakeClockClient writer(&cluster);
  FakeClockClient reader(&cluster);

  ASSERT_TRUE(reader->Lookup("/cli/f3").ok());
  const auto cached = reader->Lookup("/cli/f3");
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(cached->from_cache);
  ASSERT_TRUE(writer->Unlink("/cli/f3").ok());

  // Between Clients of one cluster the bound is zero: the unlink revoked
  // the reader's entry before it returned, so the reader's next lookup
  // runs the cascade with its lease still fresh on the clock.
  const auto r = reader->Lookup("/cli/f3");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->found);
  EXPECT_FALSE(r->from_cache);
  EXPECT_EQ(reader->CacheSize(), 0u);
}

TEST(ClientCacheTest, OtherClientsSeeARenameAtOnce) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  FakeClockClient writer(&cluster);
  FakeClockClient reader(&cluster);

  for (int i = 0; i < 2; ++i) ASSERT_TRUE(reader->Lookup("/cli/f1").ok());
  ASSERT_EQ(reader->CacheSize(), 1u);
  ASSERT_TRUE(writer->Rename("/cli/f1", "/cli/f1.moved").ok());

  const auto src = reader->Lookup("/cli/f1");
  ASSERT_TRUE(src.ok());
  EXPECT_FALSE(src->found);
  EXPECT_FALSE(src->from_cache);
  const auto dst = reader->Lookup("/cli/f1.moved");
  ASSERT_TRUE(dst.ok());
  EXPECT_TRUE(dst->found);
  EXPECT_FALSE(dst->from_cache);
}

TEST(ClientCacheTest, FailedRenameStillRevokesBothNames) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  FakeClockClient writer(&cluster);
  FakeClockClient reader(&cluster);

  ASSERT_TRUE(reader->Lookup("/cli/f0").ok());
  ASSERT_TRUE(reader->Lookup("/cli/f2").ok());
  ASSERT_EQ(reader->CacheSize(), 2u);
  // dst is taken: the rename aborts, and both names are revoked anyway.
  EXPECT_EQ(writer->Rename("/cli/f0", "/cli/f2").code(),
            StatusCode::kAlreadyExists);
  for (const char* path : {"/cli/f0", "/cli/f2"}) {
    const auto r = reader->Lookup(path);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << path;
    EXPECT_FALSE(r->from_cache) << path;
  }
}

TEST(ClientCacheTest, EpochBumpInvalidatesAcrossACleanMigration) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 12);
  FakeClockClient client(&cluster);
  for (const auto& [path, home] : home_of) {
    ASSERT_TRUE(client->Lookup(path).ok());
  }
  ASSERT_EQ(client->CacheSize(), home_of.size());

  // Move an outsider replica inside server 0's group: the move's publish
  // bumps the epoch, which must kill every older lease at the next probe.
  const auto view = cluster.MembershipOf(0);
  ASSERT_TRUE(view.ok());
  MdsId owner = kInvalidMds;
  for (const MdsId id : cluster.AliveServers()) {
    if (std::find(view->begin(), view->end(), id) == view->end()) {
      owner = id;
      break;
    }
  }
  ASSERT_NE(owner, kInvalidMds);
  const auto from = cluster.HolderOf(0, owner);
  ASSERT_TRUE(from.ok());
  MdsId to = kInvalidMds;
  for (const MdsId id : *view) {
    if (id != *from) to = id;
  }
  ASSERT_NE(to, kInvalidMds);
  const std::uint64_t epoch_before = cluster.RoutingEpoch();
  ASSERT_TRUE(cluster.MigrateReplica(owner, to).ok());
  ASSERT_GT(cluster.RoutingEpoch(), epoch_before);

  // Every lookup after the bump re-runs the cascade (no hit may survive)
  // and still lands on the right home.
  for (const auto& [path, home] : home_of) {
    const auto r = client->Lookup(path);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_TRUE(r->found) << path;
    EXPECT_FALSE(r->from_cache) << path;
    EXPECT_EQ(r->home, home) << path;
  }
  EXPECT_GE(CacheCounter(cluster, "cache.stale_epoch"), home_of.size());
}

TEST(ClientCacheTest, DisabledCacheNeverCachesOrLeases) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  ClientOptions off;
  off.cache_enabled = false;
  FakeClockClient client(&cluster, off);

  const std::uint64_t grants = ServeSum(cluster, "serve.lease_grants");
  for (int i = 0; i < 3; ++i) {
    const auto r = client->Lookup("/cli/f0");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
    EXPECT_FALSE(r->from_cache);
    EXPECT_EQ(r->lease_ttl_ms, 0u);
  }
  EXPECT_EQ(client->CacheSize(), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_grants"), grants);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_requests"), 0u);
}

TEST(ClientCacheTest, ZeroLeaseTtlFindsButNeverCaches) {
  ClusterConfig config = ClientTestConfig();
  config.hotspot.lease_ttl_ms = 0;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 8);
  FakeClockClient client(&cluster);

  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      const auto r = client->Lookup("/cli/f" + std::to_string(i));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->found);
      EXPECT_FALSE(r->from_cache);
      EXPECT_EQ(r->lease_ttl_ms, 0u);
    }
  }
  EXPECT_EQ(client->CacheSize(), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_grants"), 0u);
}

TEST(ClientCacheTest, EntryHolderAnswersWithoutVerifyOrLeaseRequest) {
  const ClusterConfig config = ClientTestConfig();
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  // The path lives on every server, so whichever server the lookup enters
  // on holds it and answers for itself in the first round. Its two group
  // peers get their kGroupProbe in that round and, holding the path too,
  // lease it as well.
  FileMetadata md;
  md.inode = 7;
  for (const std::uint16_t port : cluster.ServerPorts()) {
    auto conn = TcpConnection::Connect(port);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->SendFrame(EncodeInsert("/cli/everywhere", md)).ok());
    ASSERT_TRUE(conn->RecvFrame().ok());
  }
  FakeClockClient client(&cluster);

  const auto r = client->Lookup("/cli/everywhere");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->found);
  EXPECT_FALSE(r->from_cache);
  EXPECT_LE(r->served_level, 2);
  EXPECT_EQ(r->lease_ttl_ms, config.hotspot.lease_ttl_ms);
  EXPECT_EQ(ServeSum(cluster, "serve.local_lookups"), 1u);
  EXPECT_EQ(ServeSum(cluster, "serve.verifies"), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_requests"), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.group_probes"), 2u);
  EXPECT_EQ(ServeSum(cluster, "serve.global_probes"), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.lease_grants"), 3u);

  // Cached under the probe's TTL: live one tick before it, dead at it.
  client.now_ms += config.hotspot.lease_ttl_ms - 1;
  const auto fresh = client->Lookup("/cli/everywhere");
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->from_cache);
  client.now_ms += 1;
  const auto expired = client->Lookup("/cli/everywhere");
  ASSERT_TRUE(expired.ok());
  EXPECT_FALSE(expired->from_cache);
  EXPECT_TRUE(expired->found);
}

TEST(ClientCacheTest, ProbeGrantedLeaseDiesOnUnlinkRenameAndEpochBump) {
  // One group of three and no lookup before the client's: every answer is
  // the entry's or a group peer's own verdict, leased in the probe reply.
  ClusterConfig config = ClientTestConfig();
  config.num_mds = 3;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const std::vector<std::string> paths = {"/cli/unlinked", "/cli/renamed",
                                          "/cli/bumped"};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    FileMetadata md;
    md.inode = i + 1;
    ASSERT_TRUE(cluster.Insert(paths[i], md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  FakeClockClient client(&cluster);
  for (const auto& path : paths) {
    const auto r = client->Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_GT(r->lease_ttl_ms, 0u) << path;
    const auto again = client->Lookup(path);
    ASSERT_TRUE(again.ok());
    EXPECT_TRUE(again->from_cache) << path;
  }
  EXPECT_EQ(ServeSum(cluster, "serve.lease_requests"), 0u);
  EXPECT_EQ(ServeSum(cluster, "serve.verifies"), 0u);
  ASSERT_EQ(client->CacheSize(), paths.size());

  ASSERT_TRUE(client->Unlink(paths[0]).ok());
  const auto unlinked = client->Lookup(paths[0]);
  ASSERT_TRUE(unlinked.ok());
  EXPECT_FALSE(unlinked->from_cache);
  EXPECT_FALSE(unlinked->found);

  ASSERT_TRUE(client->Rename(paths[1], "/cli/renamed.dst").ok());
  const auto src = client->Lookup(paths[1]);
  ASSERT_TRUE(src.ok());
  EXPECT_FALSE(src->from_cache);
  EXPECT_FALSE(src->found);
  const auto dst = client->Lookup("/cli/renamed.dst");
  ASSERT_TRUE(dst.ok());
  EXPECT_TRUE(dst->found);

  const std::uint64_t epoch = cluster.RoutingEpoch();
  ASSERT_TRUE(cluster.AddServer().ok());
  ASSERT_GT(cluster.RoutingEpoch(), epoch);
  const auto bumped = client->Lookup(paths[2]);
  ASSERT_TRUE(bumped.ok()) << bumped.status().ToString();
  EXPECT_FALSE(bumped->from_cache);
  EXPECT_TRUE(bumped->found);
  EXPECT_GE(CacheCounter(cluster, "cache.stale_epoch"), 1u);
}

TEST(ClientCacheTest, CapacityBoundsTheCacheViaLruEviction) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 6);
  ClientOptions small;
  small.cache_capacity = 2;
  FakeClockClient client(&cluster, small);

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client->Lookup("/cli/f" + std::to_string(i)).ok());
    EXPECT_LE(client->CacheSize(), 2u);
  }
  // The two most recent survive; the rest were evicted, not expired.
  const auto r5 = client->Lookup("/cli/f5");
  ASSERT_TRUE(r5.ok());
  EXPECT_TRUE(r5->from_cache);
}

TEST(ClientCacheTest, HotKeyPromotionReplicatesTheHomeFilter) {
  PrototypeCluster cluster(ClientTestConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  BuildNamespace(cluster, 4);
  ClientOptions hot;
  hot.hot_threshold = 4;
  FakeClockClient client(&cluster, hot);

  const std::uint64_t migrated_before =
      cluster.metrics().replicas_migrated.value();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Lookup("/cli/f0").ok());
  }
  EXPECT_GE(CacheCounter(cluster, "cache.hot_promotions"), 1u);
  EXPECT_GT(cluster.metrics().replicas_migrated.value(), migrated_before);

  // Promotion is per (path, epoch): hammering the same path again must not
  // replicate a second time under the same topology.
  const std::uint64_t promotions =
      CacheCounter(cluster, "cache.hot_promotions");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client->Lookup("/cli/f0").ok());
  }
  EXPECT_EQ(CacheCounter(cluster, "cache.hot_promotions"), promotions);
}

// A crash at any stage of a migration, then recovery, must never let the
// facade serve a wrong answer from a pre-migration lease. The plan is
// adopted before the move runs; after the restart every segment array
// matches the holder map, and homes are unchanged (migration moves
// replicas, not files), so the bar is: all lookups correct, no stale cache
// hit pointing anywhere wrong.
class ClientMigrationCrashTest : public ::testing::TestWithParam<MoveCrash> {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() / ("ghba_clicrash_" + name);
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_P(ClientMigrationCrashTest, NoStaleCacheReadAcrossCrashAndRecovery) {
  ClusterConfig config = ClientTestConfig();
  config.storage.data_dir = dir_.string();
  config.storage.fsync = FsyncPolicy::kAlways;
  // Default deadlines: an fsync'd call must not time out on a loaded
  // machine; only the crash point may fail a call here.
  config.rpc = RpcOptions{};

  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 12);
  FakeClockClient client(&cluster);
  for (const auto& [path, home] : home_of) {
    ASSERT_TRUE(client->Lookup(path).ok());
  }
  ASSERT_EQ(client->CacheSize(), home_of.size());

  const auto view = cluster.MembershipOf(0);
  ASSERT_TRUE(view.ok());
  MdsId owner = kInvalidMds;
  for (const MdsId id : cluster.AliveServers()) {
    if (std::find(view->begin(), view->end(), id) == view->end()) {
      owner = id;
      break;
    }
  }
  ASSERT_NE(owner, kInvalidMds);
  const auto from = cluster.HolderOf(0, owner);
  ASSERT_TRUE(from.ok());
  MdsId to = kInvalidMds;
  for (const MdsId id : *view) {
    if (id != *from) to = id;
  }
  ASSERT_NE(to, kInvalidMds);

  const MdsId victim = GetParam() == MoveCrash::kInstallTo ? to : *from;
  const std::string tag = ReconfigCrashPoint(StageOf(GetParam()), victim);
  injector.ArmCrashPoint(tag);
  const Status failed = cluster.MigrateReplica(owner, to);
  ASSERT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.ToString().find(tag), std::string::npos);
  EXPECT_FALSE(injector.HasArmedCrashPoints());
  const auto holder = cluster.HolderOf(0, owner);
  ASSERT_TRUE(holder.ok());
  EXPECT_EQ(*holder, to);
  const auto restarted = cluster.RestartServer(victim);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_TRUE(restarted->durable);
  ExpectSegmentsMatchHolderMap(cluster);

  // The migration and the restart bumped the routing epoch, so no entry
  // cached before them may answer; every answer must be found at the
  // unchanged home.
  for (const auto& [path, home] : home_of) {
    const auto r = client->Lookup(path);
    ASSERT_TRUE(r.ok()) << path;
    EXPECT_FALSE(r->from_cache) << path;
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStages, ClientMigrationCrashTest,
                         ::testing::Values(MoveCrash::kFetchFrom,
                                           MoveCrash::kInstallTo,
                                           MoveCrash::kDropFrom),
                         MoveCrashName);

TEST(ClientRaceTest, ConcurrentClientsGetNoWrongAnswerUnderTopologyChurn) {
  ClusterConfig config = ClientTestConfig();
  // Sanitizer-slow servers must not turn into spurious timeouts.
  config.rpc.connect_timeout_ms = 1000;
  config.rpc.attempt_timeout_ms = 1000;
  config.rpc.call_budget_ms = 4000;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kPresent = 48;
  constexpr int kAbsent = 16;
  for (int i = 0; i < kPresent; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert("/race/f" + std::to_string(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Odd while a killed peer is down. A lookup may report Unavailable only
  // if it overlapped such a window.
  std::atomic<std::uint64_t> down_seq{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> errors{0};
  std::mutex report_mu;
  std::vector<std::string> reports;
  const auto report = [&](std::string line) {
    std::lock_guard<std::mutex> lock(report_mu);
    if (reports.size() < 8) reports.push_back(std::move(line));
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      auto client = Client::Attach(&cluster);
      for (std::uint64_t n = 0; !stop.load(); ++n) {
        const bool present = n % 4 != 3;
        const std::string path =
            present ? "/race/f" + std::to_string((n * 7 + t) % kPresent)
                    : "/race/absent" + std::to_string((n + t) % kAbsent);
        const std::uint64_t before = down_seq.load();
        const auto r = client->Lookup(path);
        const std::uint64_t after = down_seq.load();
        ++lookups;
        if (!r.ok()) {
          const bool overlapped_down = (before & 1) != 0 || before != after;
          if (r.status().code() == StatusCode::kUnavailable &&
              overlapped_down) {
            continue;
          }
          ++errors;
          report(path + ": " + r.status().ToString());
        } else if (r->found != present) {
          ++wrong;
          report(path + (present ? " reported absent" : " reported found"));
        }
      }
    });
  }

  const auto churn_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  int rounds = 0;
  for (; rounds < 3 || (rounds < 40 && std::chrono::steady_clock::now() <
                                           churn_until);
       ++rounds) {
    const auto added = cluster.AddServer();
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    const MdsId fresh = added->id;
    // The fresh server holds no file yet, so its death loses none.
    ++down_seq;
    ASSERT_TRUE(cluster.KillServer(fresh).ok());
    const auto restarted = cluster.RestartServer(fresh);
    ++down_seq;
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();

    bool migrated = false;
    const auto alive = cluster.AliveServers();
    for (const MdsId to : alive) {
      for (const MdsId owner : alive) {
        const auto holder = cluster.HolderOf(to, owner);
        if (migrated || !holder.ok() || *holder == to) continue;
        ASSERT_TRUE(cluster.MigrateReplica(owner, to).ok());
        migrated = true;
      }
    }
    EXPECT_TRUE(migrated);
    if (const Status s = cluster.SplitLargestGroup();
        !s.ok() && s.code() != StatusCode::kInvalidArgument) {
      FAIL() << s.ToString();
    }
    // A server that holds files: its drain moves them under live lookups.
    MdsId leaver = kInvalidMds;
    for (const MdsId id : cluster.AliveServers()) {
      if (id != fresh) {
        leaver = id;
        break;
      }
    }
    ASSERT_TRUE(cluster.RemoveServer(leaver).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  for (const auto& line : reports) ADD_FAILURE() << line;
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(lookups.load(), 100u);
  for (int i = 0; i < kPresent; ++i) {
    const auto r = cluster.Lookup("/race/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << i;
  }
}

TEST(ClientRaceTest, NoLookupStartedAfterAnotherClientsUnlinkFindsThePath) {
  ClusterConfig config = ClientTestConfig();
  config.rpc.connect_timeout_ms = 1000;
  config.rpc.attempt_timeout_ms = 1000;
  config.rpc.call_budget_ms = 4000;
  config.hotspot.lease_ttl_ms = 60'000;  // only a revocation can end a hit
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  constexpr int kFiles = 48;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(cluster.Insert("/rev/f" + std::to_string(i), FileMetadata{})
                    .ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Files [0, unlinked) are gone: the writer stores the count only after
  // Unlink returned.
  std::atomic<int> unlinked{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale{0};
  std::atomic<std::uint64_t> doomed_hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      auto client = Client::Attach(&cluster);
      for (std::uint64_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
        const int gone = unlinked.load(std::memory_order_acquire);
        // Alternate between the next file to go (keeps it cached) and one
        // already gone (must never be found again).
        const bool probe_gone = gone > 0 && (n + t) % 2 == 0;
        const int i = probe_gone ? static_cast<int>(n / 2 % gone)
                                 : std::min(gone, kFiles - 1);
        const auto r = client->Lookup("/rev/f" + std::to_string(i));
        if (!r.ok()) continue;
        if (i < gone && r->found) stale.fetch_add(1);
        if (i >= gone && r->from_cache) doomed_hits.fetch_add(1);
      }
    });
  }
  auto writer = Client::Attach(&cluster);
  for (int i = 0; i < kFiles; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(writer->Unlink("/rev/f" + std::to_string(i)).ok()) << i;
    unlinked.store(i + 1, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(stale.load(), 0u);
  EXPECT_GT(doomed_hits.load(), 0u) << "readers never cached a doomed file";
}

}  // namespace
}  // namespace ghba

// Crash/restart tests for the durable prototype: a kill -9 equivalent on
// one MdsServer followed by RestartServer on the same data dir must bring
// back every acknowledged insert (zero acked-but-lost) and the exact same
// local Bloom filter bits, with the recovery accounted in the kRecoveryInfo
// handshake and the storage.* metrics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rpc/prototype_cluster.hpp"
#include "storage/checkpoint.hpp"

namespace ghba {
namespace {

FileMetadata Md(std::uint64_t inode = 1) {
  FileMetadata md;
  md.inode = inode;
  return md;
}

class CrashRecoveryTest : public ::testing::TestWithParam<ProtoScheme> {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    data_dir_ = ::testing::TempDir() + "/ghba_crash_" + info->name();
    std::filesystem::remove_all(data_dir_);
    std::filesystem::create_directories(data_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(data_dir_); }

  ClusterConfig DurableConfig(std::uint32_t n = 4, std::uint32_t m = 2) {
    ClusterConfig c;
    c.num_mds = n;
    c.max_group_size = m;
    c.expected_files_per_mds = 500;
    c.lru_capacity = 64;
    c.memory_budget_bytes = 64ULL << 20;
    c.seed = 77;
    c.storage.data_dir = data_dir_;
    c.storage.fsync = FsyncPolicy::kAlways;
    return c;
  }

  std::string data_dir_;
};

TEST_P(CrashRecoveryTest, KillRestartLosesNoAckedInsert) {
  PrototypeCluster cluster(DurableConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  // Every Insert below was acked, so every one must survive the crash.
  std::vector<std::string> paths;
  for (int i = 0; i < 40; ++i) {
    paths.push_back("/crash/f" + std::to_string(i));
    ASSERT_TRUE(cluster.Insert(paths.back(), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  const MdsId victim = 1;
  const auto filter_before = cluster.FilterOf(victim);
  ASSERT_TRUE(filter_before.ok());

  ASSERT_TRUE(cluster.KillServer(victim).ok());
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);
  EXPECT_GT(info->files, 0u);
  EXPECT_GT(info->replay_records, 0u);
  EXPECT_TRUE(info->filter_matched);

  // The recovered filter is bit-identical to the pre-crash one: replay
  // reconstructed exactly the acknowledged mutation sequence.
  const auto filter_after = cluster.FilterOf(victim);
  ASSERT_TRUE(filter_after.ok());
  EXPECT_TRUE(*filter_after == *filter_before);

  for (const auto& path : paths) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
  }
}

TEST_P(CrashRecoveryTest, UndetectedCrashRestartRecovers) {
  PrototypeCluster cluster(DurableConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(cluster.Insert("/u/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Machine failure: the orchestrator still believes the server is alive.
  const MdsId victim = 2;
  ASSERT_TRUE(cluster.CrashServer(victim).ok());
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);

  for (int i = 0; i < 24; ++i) {
    const auto r = cluster.Lookup("/u/f" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << i;
  }
}

TEST_P(CrashRecoveryTest, RecoveryMetricsAreExported) {
  PrototypeCluster cluster(DurableConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cluster.Insert("/m/f" + std::to_string(i), Md(i)).ok());
  }
  const MdsId victim = 0;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  const auto stats = cluster.FetchStats(victim);
  ASSERT_TRUE(stats.ok());
  const auto& counters = stats->metrics.counters;
  const auto replayed = counters.find(metrics_names::kStorageRecoveryReplayRecords);
  ASSERT_NE(replayed, counters.end());
  EXPECT_EQ(replayed->second, info->replay_records);

  // WAL activity gauges are per-incarnation; the restarted server has not
  // appended yet, so read them off the surviving servers.
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;
  for (const MdsId id : cluster.AliveServers()) {
    if (id == victim) continue;
    const auto peer = cluster.FetchStats(id);
    ASSERT_TRUE(peer.ok());
    const auto& c = peer->metrics.counters;
    const auto it = c.find(metrics_names::kStorageWalAppends);
    if (it != c.end()) appends += it->second;
    const auto fs = c.find(metrics_names::kStorageWalFsyncs);
    if (fs != c.end()) fsyncs += fs->second;
  }
  EXPECT_GT(appends, 0u);
  EXPECT_GT(fsyncs, 0u);
}

TEST_P(CrashRecoveryTest, RestartAfterCheckpointReplaysOnlyTail) {
  auto config = DurableConfig();
  config.storage.checkpoint_wal_bytes = 4096;  // checkpoint early and often
  PrototypeCluster cluster(config, GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  // Enough inserts that every server's WAL crosses the threshold at least
  // once (~70 bytes per record, ~100 records per server).
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(cluster.Insert("/ck/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  const MdsId victim = 1;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);
  EXPECT_GT(info->files, 0u);
  // The checkpoint covered most records; replay handled at most the tail.
  EXPECT_LT(info->replay_records, info->files);

  for (int i = 0; i < 400; ++i) {
    const auto r = cluster.Lookup("/ck/f" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found) << i;
  }
}

TEST_P(CrashRecoveryTest, NonDurableRestartReportsAndLoses) {
  ClusterConfig config = DurableConfig();
  config.storage.data_dir.clear();  // durability off: the pre-PR behaviour
  PrototypeCluster cluster(config, GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster.Insert("/v/f" + std::to_string(i), Md(i)).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  const MdsId victim = 1;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // The handshake is honest: nothing was durable, nothing came back.
  EXPECT_FALSE(info->durable);
  EXPECT_EQ(info->files, 0u);

  // Files homed on the victim are gone; the others still resolve.
  int found = 0;
  for (int i = 0; i < 12; ++i) {
    const auto r = cluster.Lookup("/v/f" + std::to_string(i));
    ASSERT_TRUE(r.ok());
    if (r->found) ++found;
  }
  EXPECT_LT(found, 12);
}

TEST_P(CrashRecoveryTest, ServerRefusesACheckpointOfAnotherVersion) {
  // A data dir left by another build: its only checkpoint says version 3,
  // or 4 (the last format that carried segment replicas). The server must
  // refuse to start rather than skip the file as corrupt and come up
  // without the files it held.
  const std::string dir = data_dir_ + "/mds-0";
  for (const std::uint8_t version : {std::uint8_t{3}, std::uint8_t{4}}) {
    SCOPED_TRACE(int{version});
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    CheckpointState state;
    state.wal_seq = 1;
    state.files.emplace_back("/old", Md());
    auto bytes = EncodeCheckpoint(state);
    bytes[2] = version;  // version u16 LE
    bytes[3] = 0;
    {
      std::ofstream out(dir + "/" + CheckpointFileName(state.wal_seq),
                        std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    MdsServer server(0, DurableConfig());
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
        << started.ToString();
    EXPECT_FALSE(server.running());
  }
}

TEST_P(CrashRecoveryTest, RestartOfRunningServerRejected) {
  PrototypeCluster cluster(DurableConfig(), GetParam());
  ASSERT_TRUE(cluster.Start().ok());
  const auto info = cluster.RestartServer(1);
  EXPECT_EQ(info.status().code(), StatusCode::kAlreadyExists);
}

INSTANTIATE_TEST_SUITE_P(Schemes, CrashRecoveryTest,
                         ::testing::Values(ProtoScheme::kGhba,
                                           ProtoScheme::kHba),
                         [](const auto& info) {
                           return info.param == ProtoScheme::kGhba ? "Ghba"
                                                                   : "Hba";
                         });

}  // namespace
}  // namespace ghba

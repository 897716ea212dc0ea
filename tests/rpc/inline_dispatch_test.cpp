// Inline dispatch: the event thread answers a memory-only probe itself when
// the owning shard is idle (see DESIGN.md "MdsServer shard roles").
//
// These pin the rules that make the fast path safe:
//   * an idle shard's probe is answered inline (serve.inline_requests);
//   * a stalled shard's probe is never run inline: it waits for the stall;
//   * a server with spilled replicas answers probes on its workers only,
//     and they pay the simulated disk delay there;
//   * same path -> same shard -> FIFO still holds across the two paths
//     (pipelined insert -> verify, touch -> lookup);
//   * a kPing reply still means every earlier one-way frame was applied;
//   * a checkpoint taken while probes stream in recovers a consistent store.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"

namespace ghba {
namespace {

using namespace std::chrono_literals;

ClusterConfig TestConfig() {
  ClusterConfig c;
  c.expected_files_per_mds = 1000;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 33;
  c.rpc.server_shards = 2;
  return c;
}

std::string PathOnShard(std::uint32_t shard, std::uint32_t num_shards,
                        int skip = 0) {
  for (int i = 0;; ++i) {
    std::string path = "/inline/s" + std::to_string(shard) + "/f" +
                       std::to_string(i);
    if (ShardOfPath(path, num_shards) != shard) continue;
    if (skip-- == 0) return path;
  }
}

Result<bool> ReadBool(TcpConnection& conn, Deadline deadline) {
  auto resp = conn.RecvFrame(deadline);
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeBoolResp(in);
}

Result<LocalLookupResp> ReadLocalLookup(TcpConnection& conn,
                                        Deadline deadline) {
  auto resp = conn.RecvFrame(deadline);
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeLocalLookupResp(in);
}

Status ReadStatus(TcpConnection& conn, Deadline deadline) {
  auto resp = conn.RecvFrame(deadline);
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

class InlineDispatchTest : public ::testing::Test {
 protected:
  void Boot(const ClusterConfig& config, FaultInjector* injector = nullptr) {
    server_ = std::make_unique<MdsServer>(0, config);
    if (injector != nullptr) server_->set_fault_injector(injector);
    ASSERT_TRUE(server_->Start().ok());
  }

  TcpConnection Connect() {
    auto conn = TcpConnection::Connect(server_->port());
    EXPECT_TRUE(conn.ok());
    return std::move(*conn);
  }

  std::uint64_t Counter(const char* name) const {
    return server_->MetricsSnapshotNow().CounterOr(name);
  }
  std::uint64_t Inline() const {
    return Counter(metrics_names::kServeInlineRequests);
  }

  void Insert(TcpConnection& conn, const std::string& path) {
    FileMetadata md;
    ASSERT_TRUE(conn.SendFrame(EncodeInsert(path, md)).ok());
    ASSERT_TRUE(ReadStatus(conn, Deadline::After(5000ms)).ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<MdsServer> server_;
};

TEST_F(InlineDispatchTest, IdleShardProbeIsAnsweredInline) {
  Boot(TestConfig());
  auto conn = Connect();
  const std::string path = PathOnShard(1, server_->shards());
  Insert(conn, path);
  // The insert itself is a mutation: it ran on the worker.
  const std::uint64_t before = Inline();
  EXPECT_EQ(before, 0u);

  // The worker frees the shard before its reply leaves, so the probe that
  // follows finds the shard idle.
  ASSERT_TRUE(conn.SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok());
  auto held = ReadBool(conn, Deadline::After(5000ms));
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
  EXPECT_EQ(Inline(), before + 1);

  ASSERT_TRUE(conn.SendFrame(EncodeProbeRequest(MsgType::kLookupLocal, path,
                                                /*lease=*/false))
                  .ok());
  auto local = ReadLocalLookup(conn, Deadline::After(5000ms));
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->verdict, SelfVerdict::kHeld);
  EXPECT_EQ(Inline(), before + 2);
  // Inline requests count in the per-type counters like queued ones.
  EXPECT_EQ(Counter(metrics_names::kServeVerifies), 1u);
  EXPECT_EQ(Counter(metrics_names::kServeLocalLookups), 1u);
}

TEST_F(InlineDispatchTest, StalledShardProbeWaitsForTheStall) {
  FaultInjector injector;
  Boot(TestConfig(), &injector);
  const std::string stalled = PathOnShard(0, server_->shards());
  const std::string live = PathOnShard(1, server_->shards());
  {
    auto setup = Connect();
    Insert(setup, stalled);
    Insert(setup, live);
  }
  const std::uint64_t before = Inline();

  injector.StallShard(0, 0);
  auto stuck = Connect();
  ASSERT_TRUE(
      stuck.SendFrame(EncodePathRequest(MsgType::kVerify, stalled)).ok());
  // An idle-looking but stalled shard is not claimed: no answer yet.
  EXPECT_EQ(stuck.RecvFrame(Deadline::After(300ms)).status().code(),
            StatusCode::kTimedOut);
  EXPECT_EQ(Inline(), before);

  // The other shard keeps answering inline meanwhile.
  auto live_conn = Connect();
  ASSERT_TRUE(
      live_conn.SendFrame(EncodePathRequest(MsgType::kVerify, live)).ok());
  auto found = ReadBool(live_conn, Deadline::After(2000ms));
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(Inline(), before + 1);

  injector.UnstallShard(0, 0);
  auto released = ReadBool(stuck, Deadline::After(5000ms));
  ASSERT_TRUE(released.ok());
  EXPECT_TRUE(*released);
  // Served by the worker once the stall lifted, not inline.
  EXPECT_EQ(Inline(), before + 1);
}

TEST_F(InlineDispatchTest, SpilledReplicasPayTheDelayOnTheWorkerOnly) {
  ClusterConfig config = TestConfig();
  // A 1-byte budget spills every replica byte: each kLookupLocal pays
  // (replicas + 1) * spilled_probe_ms on its worker.
  config.memory_budget_bytes = 1;
  config.latency.spilled_probe_ms = 40.0;
  Boot(config);
  auto conn = Connect();
  const std::string path = PathOnShard(0, server_->shards());
  Insert(conn, path);
  const auto replica = BloomFilter::ForCapacity(1000, 16.0, 3);
  ASSERT_TRUE(conn.SendFrame(EncodeReplicaInstall(1, replica)).ok());
  ASSERT_TRUE(ReadStatus(conn, Deadline::After(5000ms)).ok());

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(conn.SendFrame(EncodeProbeRequest(MsgType::kLookupLocal, path,
                                                /*lease=*/false))
                  .ok());
  auto local = ReadLocalLookup(conn, Deadline::After(5000ms));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->verdict, SelfVerdict::kHeld);
  EXPECT_GE(elapsed, 60ms);  // ~2 spilled filters x 40 ms

  // No probe of an overflowing server runs on the event thread.
  ASSERT_TRUE(conn.SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok());
  auto held = ReadBool(conn, Deadline::After(5000ms));
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
  EXPECT_EQ(Inline(), 0u);
}

TEST_F(InlineDispatchTest, PipelinedSamePathRequestsStayInOrder) {
  Boot(TestConfig());
  auto conn = Connect();
  // Insert -> verify on one path, pipelined without reading: the insert is
  // queued to the worker, so the verify must queue behind it rather than
  // run inline ahead of it.
  const int kN = 16;
  std::vector<std::string> paths;
  for (int i = 0; i < kN; ++i) {
    paths.push_back(PathOnShard(static_cast<std::uint32_t>(i % 2),
                                server_->shards(), i));
    FileMetadata md;
    ASSERT_TRUE(conn.SendFrame(EncodeInsert(paths.back(), md)).ok());
    ASSERT_TRUE(
        conn.SendFrame(EncodePathRequest(MsgType::kVerify, paths.back()))
            .ok());
  }
  const auto deadline = Deadline::After(5000ms);
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(ReadStatus(conn, deadline).ok()) << i;
    auto held = ReadBool(conn, deadline);
    ASSERT_TRUE(held.ok()) << i;
    EXPECT_TRUE(*held) << paths[static_cast<std::size_t>(i)];
  }

  // One-way touch -> lookup on one path: the lookup sees the L1 hint.
  const MdsId kHome = 5;
  for (const auto& path : paths) {
    ASSERT_TRUE(conn.SendFrame(EncodeTouch(path, kHome)).ok());
    ASSERT_TRUE(conn.SendFrame(EncodeProbeRequest(MsgType::kLookupLocal, path,
                                                  /*lease=*/false))
                    .ok());
  }
  for (const auto& path : paths) {
    auto local = ReadLocalLookup(conn, deadline);
    ASSERT_TRUE(local.ok()) << path;
    EXPECT_TRUE(local->lru_unique) << path;
    EXPECT_EQ(local->lru_home, kHome) << path;
  }
}

TEST_F(InlineDispatchTest, PingReplyMeansEarlierOneWaysWereApplied) {
  Boot(TestConfig());
  auto conn = Connect();
  const int kN = 24;
  std::vector<std::string> paths;
  for (int i = 0; i < kN; ++i) {
    OutcomeReport report;
    report.level = static_cast<std::uint8_t>(1 + i % 3);
    report.found = true;
    report.elapsed_ns = 1000;
    ASSERT_TRUE(conn.SendFrame(EncodeOutcomeReport(report)).ok());
    paths.push_back(PathOnShard(static_cast<std::uint32_t>(i % 2),
                                server_->shards(), i));
    ASSERT_TRUE(conn.SendFrame(EncodeTouch(paths.back(), 7)).ok());
  }
  ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kPing)).ok());
  ASSERT_TRUE(ReadStatus(conn, Deadline::After(5000ms)).ok());

  // Every report and touch sent before the ping is visible now.
  const auto snap = server_->MetricsSnapshotNow();
  EXPECT_EQ(snap.CounterOr(metrics_names::kLookupsL1) +
                snap.CounterOr(metrics_names::kLookupsL2) +
                snap.CounterOr(metrics_names::kLookupsL3),
            static_cast<std::uint64_t>(kN));
  auto other = Connect();
  for (const auto& path : paths) {
    ASSERT_TRUE(other
                    .SendFrame(EncodeProbeRequest(MsgType::kLookupLocal, path,
                                                  /*lease=*/false))
                    .ok());
    auto local = ReadLocalLookup(other, Deadline::After(5000ms));
    ASSERT_TRUE(local.ok()) << path;
    EXPECT_TRUE(local->lru_unique) << path;
    EXPECT_EQ(local->lru_home, 7u) << path;
  }
}

TEST_F(InlineDispatchTest, CheckpointWhileProbesStreamRecoversConsistently) {
  const std::string dir = ::testing::TempDir() + "/ghba_inline_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ClusterConfig config = TestConfig();
  config.storage.data_dir = dir;
  config.storage.fsync = FsyncPolicy::kNever;
  // A tiny WAL threshold: checkpoints (which park every shard) keep firing
  // while the probes below stream in.
  config.storage.checkpoint_wal_bytes = 2048;
  Boot(config);

  const int kFiles = 240;
  std::vector<std::string> paths;
  for (int i = 0; i < kFiles; ++i) {
    paths.push_back("/inline/ckpt/f" + std::to_string(i));
  }
  std::atomic<int> acked{0};
  std::atomic<bool> stop{false};
  std::atomic<int> probes{0};
  std::atomic<int> wrong{0};
  std::thread prober([&] {
    auto conn = Connect();
    int i = 0;
    while (!stop.load()) {
      const int n = acked.load();
      if (n == 0) {
        std::this_thread::sleep_for(1ms);
        continue;
      }
      // An acknowledged insert must be visible to every later probe,
      // whether a worker or the event thread answers it.
      const std::string& path = paths[static_cast<std::size_t>(i++ % n)];
      if (!conn.SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok()) {
        ++wrong;
        return;
      }
      auto held = ReadBool(conn, Deadline::After(5000ms));
      if (!held.ok() || !*held) ++wrong;
      ++probes;
    }
  });
  auto writer = Connect();
  for (int i = 0; i < kFiles; ++i) {
    Insert(writer, paths[static_cast<std::size_t>(i)]);
    acked.store(i + 1);
  }
  // Let the probes run across at least one more checkpoint cycle.
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (probes.load() < 200 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(5ms);
  }
  stop.store(true);
  prober.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(probes.load(), 0);
  EXPECT_GT(Counter(metrics_names::kStorageCheckpoints), 0u);
  EXPECT_GT(Inline(), 0u);

  // Restart on the same directory: the checkpoint plus the WAL tail hold
  // every acknowledged insert and nothing else.
  server_->Stop();
  server_.reset();
  Boot(config);
  auto conn = Connect();
  for (const auto& path : paths) {
    ASSERT_TRUE(conn.SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok());
    auto held = ReadBool(conn, Deadline::After(5000ms));
    ASSERT_TRUE(held.ok()) << path;
    EXPECT_TRUE(*held) << path;
  }
  ASSERT_TRUE(conn.SendFrame(EncodePathRequest(MsgType::kVerify,
                                               "/inline/ckpt/never"))
                  .ok());
  auto absent = ReadBool(conn, Deadline::After(5000ms));
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(*absent);
  server_->Stop();
  server_.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ghba

// Pipelining, batching and shard-isolation tests against a live MdsServer.
//
// These pin the contracts the sharded event loop introduced (see DESIGN.md
// "Concurrency invariants" and docs/PROTOCOL.md "Pipelining"):
//
//   * any number of requests may be in flight on one connection, and the
//     responses come back in request order;
//   * many frames landing in one TCP segment are all served from that one
//     wakeup (regression: the old poll loop handled one frame per ready
//     connection per iteration);
//   * blocking work — the simulated spilled-replica probe, an injected
//     shard stall — runs on a worker and delays only its own shard, never
//     another connection's traffic (regression: the old single-threaded
//     loop slept in the event thread, stalling every connection);
//   * kBatch packs many sub-requests into one frame/CRC and the responses
//     come back slot-for-slot; kVersion negotiates the protocol revision.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <sys/socket.h>
#include <vector>

#include "rpc/fault_injector.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire_buffer.hpp"

namespace ghba {
namespace {

using namespace std::chrono_literals;

ClusterConfig TestConfig() {
  ClusterConfig c;
  c.expected_files_per_mds = 1000;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 21;
  c.rpc.server_shards = 2;
  return c;
}

/// A path that ShardOfPath places on `shard` of `num_shards`.
std::string PathOnShard(std::uint32_t shard, std::uint32_t num_shards) {
  for (int i = 0;; ++i) {
    std::string path = "/pipe/s" + std::to_string(shard) + "/f" +
                       std::to_string(i);
    if (ShardOfPath(path, num_shards) == shard) return path;
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

class PipeliningTest : public ::testing::Test {
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

  void TearDown() override {
    if (server_) server_->Stop();
  }

  std::unique_ptr<MdsServer> server_;
};

TEST_F(PipeliningTest, ResponsesComeBackInRequestOrder) {
  Boot(TestConfig());
  auto conn = Connect();
  // Fire a full window of inserts followed by the matching verifies
  // without reading a single response.
  const int kN = 25;
  for (int i = 0; i < kN; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(
        conn.SendFrame(EncodeInsert("/pipe/f" + std::to_string(i), md)).ok());
  }
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(conn.SendFrame(EncodePathRequest(
                                   MsgType::kVerify,
                                   "/pipe/f" + std::to_string(i)))
                    .ok());
  }
  const auto deadline = Deadline::After(5000ms);
  // First kN responses are the insert acks, in order...
  for (int i = 0; i < kN; ++i) {
    auto resp = conn.RecvFrame(deadline);
    ASSERT_TRUE(resp.ok()) << i;
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    ASSERT_TRUE(env.ok()) << i;
    EXPECT_TRUE(env->status.ok()) << i << ": " << env->status.ToString();
  }
  // ...then the verifies, each finding the file its same-path insert
  // created (same path -> same shard -> FIFO).
  for (int i = 0; i < kN; ++i) {
    auto found = ReadBool(conn, deadline);
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_TRUE(*found) << i;
  }
}

// Regression (poll-loop rewrite): frames buffered behind the first one in
// a single TCP segment must all be served from that wakeup, not one per
// loop iteration.
TEST_F(PipeliningTest, ManyFramesInOneSegmentAllAnswer) {
  Boot(TestConfig());
  auto conn = Connect();
  FileMetadata md;
  ASSERT_TRUE(conn.SendFrame(EncodeInsert("/pipe/seg", md)).ok());
  ASSERT_TRUE(conn.RecvFrame(Deadline::After(5000ms)).ok());

  // Hand-build one byte blob holding many complete wire frames and push it
  // with a single send(2).
  const int kN = 64;
  std::vector<std::uint8_t> blob;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(BuildWireFrame(
        FaultInjector::FramePlan{},
        EncodePathRequest(MsgType::kVerify, "/pipe/seg"), blob));
  }
  ASSERT_EQ(::send(conn.fd(), blob.data(), blob.size(), 0),
            static_cast<ssize_t>(blob.size()));
  const auto deadline = Deadline::After(5000ms);
  for (int i = 0; i < kN; ++i) {
    auto found = ReadBool(conn, deadline);
    ASSERT_TRUE(found.ok()) << i;
    EXPECT_TRUE(*found) << i;
  }
}

// Regression (satellite bugfix): the simulated spilled-replica probe used
// to sleep in the event thread, so one slow lookup froze every
// connection. It now sleeps on the owning shard's worker: traffic for the
// other shard must complete while the slow lookup is still pending.
TEST_F(PipeliningTest, SlowSpilledLookupDoesNotDelayOtherShard) {
  ClusterConfig config = TestConfig();
  // Zero budget: every replica byte spills, so kLookupLocal pays
  // (replicas + 1) * spilled_probe_ms on its worker.
  config.memory_budget_bytes = 1;
  config.latency.spilled_probe_ms = 150.0;
  Boot(config);
  auto slow = Connect();
  auto fast = Connect();

  const std::string slow_path = PathOnShard(0, server_->shards());
  const std::string fast_path = PathOnShard(1, server_->shards());
  {
    auto setup = Connect();
    FileMetadata md;
    ASSERT_TRUE(setup.SendFrame(EncodeInsert(slow_path, md)).ok());
    ASSERT_TRUE(setup.SendFrame(EncodeInsert(fast_path, md)).ok());
    // A resident replica is what spills: with a 1-byte budget the whole
    // array overflows and every kLookupLocal pays the probe penalty.
    const auto replica = BloomFilter::ForCapacity(1000, 16.0, 3);
    ASSERT_TRUE(setup.SendFrame(EncodeReplicaInstall(1, replica)).ok());
    ASSERT_TRUE(setup.RecvFrame(Deadline::After(5000ms)).ok());
    ASSERT_TRUE(setup.RecvFrame(Deadline::After(5000ms)).ok());
    ASSERT_TRUE(setup.RecvFrame(Deadline::After(5000ms)).ok());
  }

  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      slow.SendFrame(EncodeProbeRequest(MsgType::kLookupLocal, slow_path,
                                        /*lease=*/false))
          .ok());
  ASSERT_TRUE(
      fast.SendFrame(EncodePathRequest(MsgType::kVerify, fast_path)).ok());
  auto found = ReadBool(fast, Deadline::After(5000ms));
  const auto fast_elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  // The fast connection must not wait out the slow shard's ~300ms probe.
  EXPECT_LT(fast_elapsed, 100ms);
  // And the slow lookup still completes.
  auto resp = slow.RecvFrame(Deadline::After(5000ms));
  ASSERT_TRUE(resp.ok());
  const auto slow_elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(slow_elapsed, 140ms);
}

// An injected stall parks exactly the stalled shard; the other shard keeps
// serving, and releasing the stall lets the parked traffic finish.
TEST_F(PipeliningTest, ShardStallOnlyParksThatShard) {
  FaultInjector injector;
  Boot(TestConfig(), &injector);
  const std::string stalled_path = PathOnShard(0, server_->shards());
  const std::string live_path = PathOnShard(1, server_->shards());
  {
    auto setup = Connect();
    FileMetadata md;
    ASSERT_TRUE(setup.SendFrame(EncodeInsert(stalled_path, md)).ok());
    ASSERT_TRUE(setup.SendFrame(EncodeInsert(live_path, md)).ok());
    ASSERT_TRUE(setup.RecvFrame(Deadline::After(5000ms)).ok());
    ASSERT_TRUE(setup.RecvFrame(Deadline::After(5000ms)).ok());
  }

  injector.StallShard(0, 0);
  auto stuck = Connect();
  auto live = Connect();
  ASSERT_TRUE(
      stuck.SendFrame(EncodePathRequest(MsgType::kVerify, stalled_path)).ok());
  // The stalled shard must not answer while stalled...
  EXPECT_EQ(stuck.RecvFrame(Deadline::After(300ms)).status().code(),
            StatusCode::kTimedOut);
  // ...but the other shard serves normally the whole time.
  ASSERT_TRUE(
      live.SendFrame(EncodePathRequest(MsgType::kVerify, live_path)).ok());
  auto found = ReadBool(live, Deadline::After(2000ms));
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);

  injector.UnstallShard(0, 0);
  auto released = ReadBool(stuck, Deadline::After(5000ms));
  ASSERT_TRUE(released.ok());
  EXPECT_TRUE(*released);
}

TEST_F(PipeliningTest, BatchRoundTripsSlotForSlot) {
  Boot(TestConfig());
  auto conn = Connect();
  FileMetadata md;
  md.inode = 9;
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodeInsert("/batch/a", md));
  subs.push_back(EncodeInsert("/batch/b", md));
  subs.push_back(EncodePathRequest(MsgType::kVerify, "/batch/a"));
  subs.push_back(EncodePathRequest(MsgType::kVerify, "/batch/b"));
  subs.push_back(EncodePathRequest(MsgType::kVerify, "/batch/absent"));
  ASSERT_TRUE(conn.SendFrame(EncodeBatch(subs)).ok());

  auto resp = conn.RecvFrame(Deadline::After(5000ms));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  auto out = DecodeBatchResp(in);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), subs.size());

  for (int slot = 0; slot < 2; ++slot) {
    ByteReader sub((*out)[static_cast<std::size_t>(slot)]);
    auto sub_env = OpenEnvelope(sub);
    ASSERT_TRUE(sub_env.ok()) << slot;
    EXPECT_TRUE(sub_env->status.ok()) << slot;
  }
  const bool expect_found[] = {true, true, false};
  for (int slot = 2; slot < 5; ++slot) {
    ByteReader sub((*out)[static_cast<std::size_t>(slot)]);
    auto sub_env = OpenEnvelope(sub);
    ASSERT_TRUE(sub_env.ok()) << slot;
    ASSERT_TRUE(sub_env->has_payload) << slot;
    auto found = DecodeBoolResp(sub);
    ASSERT_TRUE(found.ok()) << slot;
    EXPECT_EQ(*found, expect_found[slot - 2]) << slot;
  }
}

TEST_F(PipeliningTest, BatchCarryingNonBatchableTypeIsRejectedWhole) {
  Boot(TestConfig());
  auto conn = Connect();
  std::vector<std::vector<std::uint8_t>> subs;
  subs.push_back(EncodePathRequest(MsgType::kVerify, "/x"));
  subs.push_back(EncodeHeader(MsgType::kShutdown));  // must not smuggle in
  ASSERT_TRUE(conn.SendFrame(EncodeBatch(subs)).ok());
  auto resp = conn.RecvFrame(Deadline::After(5000ms));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->status.ok());
  // And the server must still be alive to serve the next request.
  ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kPing)).ok());
  EXPECT_TRUE(conn.RecvFrame(Deadline::After(5000ms)).ok());
}

TEST_F(PipeliningTest, VersionHandshakeAnswersProtocolVersion) {
  Boot(TestConfig());
  auto conn = Connect();
  ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kVersion)).ok());
  auto resp = conn.RecvFrame(Deadline::After(5000ms));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  auto version = DecodeVersionResp(in);
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, kProtocolVersion);
}

}  // namespace
}  // namespace ghba

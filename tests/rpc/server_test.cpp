#include "rpc/server.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "bloom/compressed.hpp"
#include "core/metrics.hpp"

namespace ghba {
namespace {

ClusterConfig TestConfig() {
  ClusterConfig c;
  c.expected_files_per_mds = 1000;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 13;
  return c;
}

class MdsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<MdsServer>(0, TestConfig());
    ASSERT_TRUE(server_->Start().ok());
    auto conn = TcpConnection::Connect(server_->port());
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
  }

  void TearDown() override { server_->Stop(); }

  Result<std::vector<std::uint8_t>> Call(const std::vector<std::uint8_t>& req) {
    if (Status s = conn_.SendFrame(req); !s.ok()) return s;
    return conn_.RecvFrame();
  }

  Status CallStatus(const std::vector<std::uint8_t>& req) {
    auto resp = Call(req);
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    return env->status;
  }

  /// Replace the server with one running `config`, and reconnect.
  void Restart(const ClusterConfig& config) {
    server_->Stop();
    server_ = std::make_unique<MdsServer>(0, config);
    ASSERT_TRUE(server_->Start().ok());
    auto conn = TcpConnection::Connect(server_->port());
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
  }

  Result<LocalLookupResp> Probe(MsgType type, const std::string& path,
                                bool lease) {
    auto resp = Call(EncodeProbeRequest(type, path, lease));
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->has_payload) return env->status;
    return DecodeLocalLookupResp(in);
  }

  Result<LeaseGrantResp> Lease(const std::string& path) {
    auto resp = Call(EncodePathRequest(MsgType::kLeaseGrant, path));
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->has_payload) return env->status;
    return DecodeLeaseGrantResp(in);
  }

  std::uint64_t Counter(const char* name) {
    auto resp = Call(EncodeHeader(MsgType::kStatsSnapshot));
    if (!resp.ok()) return 0;
    ByteReader in(*resp);
    if (!OpenEnvelope(in).ok()) return 0;
    const auto snap = DecodeStatsSnapshotResp(in);
    return snap.ok() ? snap->metrics.CounterOr(name) : 0;
  }

  Result<bool> CallBool(const std::vector<std::uint8_t>& req) {
    auto resp = Call(req);
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->has_payload) return env->status;
    return DecodeBoolResp(in);
  }

  std::unique_ptr<MdsServer> server_;
  TcpConnection conn_;
};

TEST_F(MdsServerTest, PingPong) {
  EXPECT_TRUE(CallStatus(EncodeHeader(MsgType::kPing)).ok());
}

TEST_F(MdsServerTest, InsertThenVerify) {
  FileMetadata md;
  md.inode = 5;
  ASSERT_TRUE(CallStatus(EncodeInsert("/a", md)).ok());
  const auto found = CallBool(EncodePathRequest(MsgType::kVerify, "/a"));
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  const auto missing = CallBool(EncodePathRequest(MsgType::kVerify, "/b"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
}

TEST_F(MdsServerTest, DuplicateInsertRejected) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/dup", md)).ok());
  EXPECT_EQ(CallStatus(EncodeInsert("/dup", md)).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(MdsServerTest, UnlinkRemoves) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/gone", md)).ok());
  ASSERT_TRUE(CallStatus(EncodePathRequest(MsgType::kUnlink, "/gone")).ok());
  const auto found = CallBool(EncodePathRequest(MsgType::kGlobalProbe, "/gone"));
  ASSERT_TRUE(found.ok());
  EXPECT_FALSE(*found);
  EXPECT_EQ(CallStatus(EncodePathRequest(MsgType::kUnlink, "/gone")).code(),
            StatusCode::kNotFound);
}

TEST_F(MdsServerTest, GlobalProbeIsAuthoritative) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/auth", md)).ok());
  const auto found = CallBool(EncodePathRequest(MsgType::kGlobalProbe, "/auth"));
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
}

TEST_F(MdsServerTest, LocalLookupReportsOwnFilterHit) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/own", md)).ok());
  auto resp = Call(EncodeProbeRequest(MsgType::kLookupLocal, "/own", false));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto local = DecodeLocalLookupResp(in);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local->hits.size(), 1u);
  EXPECT_EQ(local->hits.front(), 0u);  // this server's own id
}

TEST_F(MdsServerTest, ReplicaInstallAndProbe) {
  auto owner_filter = BloomFilter::ForCapacity(1000, 16.0, TestConfig().seed ^ 0x5151);
  owner_filter.Add("/remote/file");
  ASSERT_TRUE(CallStatus(EncodeReplicaInstall(7, owner_filter)).ok());

  auto resp =
      Call(EncodeProbeRequest(MsgType::kGroupProbe, "/remote/file", false));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  const auto local = DecodeLocalLookupResp(in);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(local->hits.size(), 1u);
  EXPECT_EQ(local->hits.front(), 7u);
}

TEST_F(MdsServerTest, ReplicaInstallRefreshesExisting) {
  auto v1 = BloomFilter::ForCapacity(1000, 16.0, 1);
  v1.Add("/old");
  ASSERT_TRUE(CallStatus(EncodeReplicaInstall(7, v1)).ok());
  auto v2 = BloomFilter::ForCapacity(1000, 16.0, 1);
  v2.Add("/new");
  ASSERT_TRUE(CallStatus(EncodeReplicaInstall(7, v2)).ok());

  auto resp = Call(EncodeProbeRequest(MsgType::kGroupProbe, "/old", false));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto local = DecodeLocalLookupResp(in);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local->hits.empty());  // refreshed away
}

TEST_F(MdsServerTest, ReplicaFetchAndDrop) {
  auto filter = BloomFilter::ForCapacity(100, 8.0, 2);
  filter.Add("/k");
  ASSERT_TRUE(CallStatus(EncodeReplicaInstall(9, filter)).ok());

  auto fetch = Call(EncodeReplicaFetch(9));
  ASSERT_TRUE(fetch.ok());
  ByteReader in(*fetch);
  auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  ASSERT_TRUE(env->has_payload);
  const auto fetched = DecompressFilter(in);
  ASSERT_TRUE(fetched.ok());
  EXPECT_TRUE(fetched->MayContain("/k"));

  ASSERT_TRUE(CallStatus(EncodeReplicaDrop(9)).ok());
  EXPECT_EQ(CallStatus(EncodeReplicaFetch(9)).code(), StatusCode::kNotFound);
}

TEST_F(MdsServerTest, TouchLruThenLookupUsesIt) {
  // Teach the LRU that /cached lives on MDS 4, then expect a unique L1 hit.
  ASSERT_TRUE(conn_.SendFrame(EncodeTouch("/cached", 4)).ok());
  // One-way message: give the loop a moment by round-tripping a ping.
  ASSERT_TRUE(CallStatus(EncodeHeader(MsgType::kPing)).ok());

  auto resp = Call(EncodeProbeRequest(MsgType::kLookupLocal, "/cached", false));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto local = DecodeLocalLookupResp(in);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(local->lru_unique);
  EXPECT_EQ(local->lru_home, 4u);
}

TEST_F(MdsServerTest, MemoryOnlyExportParksTheShardsOnce) {
  ASSERT_TRUE(CallStatus(EncodeInsert("/drain/a", FileMetadata{})).ok());
  ASSERT_TRUE(CallStatus(EncodeInsert("/drain/b", FileMetadata{})).ok());
  EXPECT_EQ(Counter(metrics_names::kServeShardParks), 0u);
  auto resp = Call(EncodeHeader(MsgType::kExportFiles));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto files = DecodeFileListResp(in);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->files.size(), 2u);
  // With no journal there is never a checkpoint to write, so nothing may
  // park the shards a second time. A second park would follow the reply
  // at once; give it time to show.
  std::uint64_t parks = 0;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < until) {
    parks = Counter(metrics_names::kServeShardParks);
    if (parks > 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(parks, 1u);
}

TEST_F(MdsServerTest, StatsCountFrames) {
  ASSERT_TRUE(CallStatus(EncodeHeader(MsgType::kPing)).ok());
  auto resp = Call(EncodeHeader(MsgType::kStatsSnapshot));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto stats = DecodeStatsSnapshotResp(in);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->frames_in, 2u);
  EXPECT_GE(stats->frames_out, 1u);
}

TEST_F(MdsServerTest, LeaseGrantedOnlyForStoredPaths) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/leased", md)).ok());

  auto resp = Call(EncodePathRequest(MsgType::kLeaseGrant, "/leased"));
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  ASSERT_TRUE(OpenEnvelope(in).ok());
  const auto lease = DecodeLeaseGrantResp(in);
  ASSERT_TRUE(lease.ok());
  EXPECT_TRUE(lease->held);
  EXPECT_EQ(lease->home, 0u);  // the granting server names itself
  EXPECT_EQ(lease->ttl_ms, TestConfig().hotspot.lease_ttl_ms);

  // Not stored here: a refusal ("do not cache"), never an error and never
  // an existence verdict.
  auto missing = Call(EncodePathRequest(MsgType::kLeaseGrant, "/elsewhere"));
  ASSERT_TRUE(missing.ok());
  ByteReader min(*missing);
  ASSERT_TRUE(OpenEnvelope(min).ok());
  const auto refusal = DecodeLeaseGrantResp(min);
  ASSERT_TRUE(refusal.ok());
  EXPECT_FALSE(refusal->held);
  EXPECT_EQ(refusal->ttl_ms, 0u);
}

TEST_F(MdsServerTest, RetiredInvalidateTypeIsRejected) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/l1", md)).ok());
  ASSERT_TRUE(Lease("/l1").ok());
  // Type 24 carried the wire revocation until v8; now it is unknown.
  ByteWriter w;
  w.PutU16(24);
  w.PutString("/l1");
  EXPECT_FALSE(CallStatus(w.Take()).ok());
  // The path and its lease grant are untouched by it.
  const auto lease = Lease("/l1");
  ASSERT_TRUE(lease.ok());
  EXPECT_TRUE(lease->held);
  EXPECT_EQ(Counter("serve.lease_grants"), 2u);
}

TEST_F(MdsServerTest, ProbesAnswerForTheirOwnStoreAndLeaseOnRequest) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/self", md)).ok());
  for (const MsgType type : {MsgType::kLookupLocal, MsgType::kGroupProbe}) {
    const auto leased = Probe(type, "/self", /*lease=*/true);
    ASSERT_TRUE(leased.ok()) << leased.status().ToString();
    EXPECT_EQ(leased->verdict, SelfVerdict::kHeld);
    EXPECT_EQ(leased->lease_ttl_ms, TestConfig().hotspot.lease_ttl_ms);
    const auto plain = Probe(type, "/self", /*lease=*/false);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain->verdict, SelfVerdict::kHeld);
    EXPECT_EQ(plain->lease_ttl_ms, 0u);
    const auto elsewhere = Probe(type, "/elsewhere", /*lease=*/true);
    ASSERT_TRUE(elsewhere.ok());
    EXPECT_EQ(elsewhere->verdict, SelfVerdict::kAbsent);
    EXPECT_EQ(elsewhere->lease_ttl_ms, 0u);
  }
  // Only the two leased probes of a held path recorded a lease.
  EXPECT_EQ(Counter("serve.lease_grants"), 2u);
  EXPECT_EQ(Counter("serve.lease_requests"), 0u);
  EXPECT_EQ(Counter("serve.verifies"), 0u);
}

TEST_F(MdsServerTest, ProbeWithoutTheLeaseFlagIsRejected) {
  // v6 has no fallback for a v5-shaped probe.
  EXPECT_EQ(CallStatus(EncodePathRequest(MsgType::kLookupLocal, "/x")).code(),
            StatusCode::kCorruption);
}

TEST_F(MdsServerTest, LeaseReplyIsAVerifyWhenLeasesAreOff) {
  ClusterConfig config = TestConfig();
  config.hotspot.lease_ttl_ms = 0;
  Restart(config);
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/stored", md)).ok());
  // Stored, no lease: held with TTL 0, not a refusal of existence.
  const auto stored = Lease("/stored");
  ASSERT_TRUE(stored.ok());
  EXPECT_TRUE(stored->held);
  EXPECT_EQ(stored->home, 0u);
  EXPECT_EQ(stored->ttl_ms, 0u);
  const auto missing = Lease("/missing");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->held);
  EXPECT_EQ(missing->ttl_ms, 0u);
  const auto probe = Probe(MsgType::kLookupLocal, "/stored", /*lease=*/true);
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->verdict, SelfVerdict::kHeld);
  EXPECT_EQ(probe->lease_ttl_ms, 0u);
  EXPECT_EQ(Counter("serve.lease_grants"), 0u);
  EXPECT_EQ(Counter("serve.lease_requests"), 2u);
  EXPECT_EQ(Counter("serve.verifies"), 2u);  // each reply was a verify
}

TEST_F(MdsServerTest, MalformedFrameAnswersWithError) {
  ByteWriter w;
  w.PutU16(12345);  // unknown type
  auto resp = Call(w.Take());
  ASSERT_TRUE(resp.ok());
  ByteReader in(*resp);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok());
  EXPECT_FALSE(env->status.ok());
}

// A client pipelines more reply bytes than the socket buffers hold and
// reads nothing until the server has queued every reply. The server's
// send would block, so its event loop keeps the rest in the connection's
// out buffer and waits for EPOLLOUT. Every reply still arrives, in request
// order, and the connection stays usable.
TEST_F(MdsServerTest, BackedUpRepliesArriveInOrderOnAnOpenConnection) {
  FileMetadata md;
  ASSERT_TRUE(CallStatus(EncodeInsert("/bp/held", md)).ok());
  auto probe = TcpConnection::Connect(server_->port());
  ASSERT_TRUE(probe.ok());
  // The server's replies so far, read on the probe connection.
  const auto frames_out = [&]() -> std::uint64_t {
    if (!probe->SendFrame(EncodeHeader(MsgType::kStatsSnapshot)).ok()) {
      return 0;
    }
    auto resp = probe->RecvFrame(Deadline::After(std::chrono::seconds(10)));
    if (!resp.ok()) return 0;
    ByteReader in(*resp);
    if (!OpenEnvelope(in).ok()) return 0;
    const auto stats = DecodeStatsSnapshotResp(in);
    return stats.ok() ? stats->frames_out : 0;
  };
  const std::uint64_t before = frames_out();

  // One batch of 1024 stats snapshots answers with about 0.7 MB, so eight
  // outgrow the socket buffers (Linux caps a send buffer at 4 MiB by
  // default). A verify follows each batch, held or absent by parity, so
  // the order of the replies shows in their contents.
  constexpr int kBatches = 8;
  constexpr std::size_t kPerBatch = 1024;
  const std::vector<std::vector<std::uint8_t>> subs(
      kPerBatch, EncodeHeader(MsgType::kStatsSnapshot));
  const auto batch = EncodeBatch(subs);
  const auto verify = [](int i) {
    return EncodePathRequest(MsgType::kVerify,
                             i % 2 == 0 ? "/bp/held" : "/bp/absent");
  };
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(conn_.SendFrame(batch).ok());
    ASSERT_TRUE(conn_.SendFrame(verify(i)).ok());
  }

  // frames_out counts a reply once it is queued for its connection; the
  // probe's own earlier replies are taken back out.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (std::uint64_t probes = 1;; ++probes) {
    if (frames_out() - before - probes >= 2 * kBatches) break;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the server never queued every reply";
  }

  for (int i = 0; i < kBatches; ++i) {
    auto resp = conn_.RecvFrame(Deadline::After(std::chrono::seconds(10)));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ByteReader in(*resp);
    const auto env = OpenEnvelope(in);
    ASSERT_TRUE(env.ok() && env->has_payload) << "batch " << i;
    const auto slots = DecodeBatchResp(in);
    ASSERT_TRUE(slots.ok()) << "batch " << i;
    EXPECT_EQ(slots->size(), kPerBatch) << "batch " << i;

    resp = conn_.RecvFrame(Deadline::After(std::chrono::seconds(10)));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ByteReader vin(*resp);
    const auto venv = OpenEnvelope(vin);
    ASSERT_TRUE(venv.ok() && venv->has_payload) << "verify " << i;
    const auto held = DecodeBoolResp(vin);
    ASSERT_TRUE(held.ok()) << "verify " << i;
    EXPECT_EQ(*held, i % 2 == 0) << "verify " << i;
  }
  EXPECT_TRUE(CallStatus(EncodeHeader(MsgType::kPing)).ok());
}

TEST_F(MdsServerTest, StopIsIdempotent) {
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST(MdsServerStallTest, StalledLoopParksRequestsUntilUnstalled) {
  // An injected stall is the failure mode heart-beats exist for: the
  // sockets stay open but nothing answers, so only a deadline saves the
  // caller. Unstalling lets the parked request complete.
  MdsServer server(0, TestConfig());
  FaultInjector injector;
  server.set_fault_injector(&injector);
  ASSERT_TRUE(server.Start().ok());
  auto conn = TcpConnection::Connect(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(EncodeHeader(MsgType::kPing)).ok());
  ASSERT_TRUE(conn->RecvFrame().ok());

  injector.StallServer(0);
  // The loop polls in <=200ms slices; after this sleep it has certainly
  // observed the stall flag and parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_TRUE(conn->SendFrame(EncodeHeader(MsgType::kPing)).ok());
  const auto parked =
      conn->RecvFrame(Deadline::After(std::chrono::milliseconds(150)));
  ASSERT_FALSE(parked.ok());
  EXPECT_EQ(parked.status().code(), StatusCode::kTimedOut);

  injector.UnstallServer(0);
  const auto resumed =
      conn->RecvFrame(Deadline::After(std::chrono::seconds(5)));
  EXPECT_TRUE(resumed.ok()) << resumed.status().ToString();
  server.Stop();
}

TEST(MdsServerStallTest, StalledServerStillShutsDown) {
  MdsServer server(3, TestConfig());
  FaultInjector injector;
  server.set_fault_injector(&injector);
  ASSERT_TRUE(server.Start().ok());
  injector.StallServer(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  server.Stop();  // must not hang on the stalled loop
  EXPECT_FALSE(server.running());
}

// Regression (satellite bugfix): the old loop treated every poll(2)
// failure as a timeout and spun forever on a broken fd set, serving
// nobody and saying nothing. A fatal wait error must stop the server and
// leave a visible diagnosis.
TEST(MdsServerWaitErrorTest, FatalWaitErrorStopsTheServerVisibly) {
  MdsServer server(0, TestConfig());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.last_error().empty());
  server.SabotageEventLoopForTest(EBADF);
  // Any traffic wakes the loop; the sabotaged wait then reports EBADF.
  auto conn = TcpConnection::Connect(server.port());
  for (int i = 0; i < 100 && server.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(server.running());
  EXPECT_NE(server.last_error().find("Bad file"), std::string::npos)
      << server.last_error();
  server.Stop();
}

TEST(MdsServerWaitErrorTest, EintrIsRetriedNotFatal) {
  MdsServer server(0, TestConfig());
  ASSERT_TRUE(server.Start().ok());
  server.SabotageEventLoopForTest(EINTR);
  auto conn = TcpConnection::Connect(server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendFrame(EncodeHeader(MsgType::kPing)).ok());
  EXPECT_TRUE(conn->RecvFrame(Deadline::After(std::chrono::seconds(5))).ok());
  EXPECT_TRUE(server.running());
  EXPECT_TRUE(server.last_error().empty());
  server.Stop();
}

TEST(ClassifyWaitErrorTest, TransientVersusFatal) {
  EXPECT_EQ(ClassifyWaitError(EINTR), IoErrorAction::kRetry);
  EXPECT_EQ(ClassifyWaitError(EAGAIN), IoErrorAction::kRetry);
  EXPECT_EQ(ClassifyWaitError(EBADF), IoErrorAction::kFatal);
  EXPECT_EQ(ClassifyWaitError(EINVAL), IoErrorAction::kFatal);
  EXPECT_EQ(ClassifyWaitError(ENOMEM), IoErrorAction::kFatal);
  EXPECT_EQ(ClassifyWaitError(EFAULT), IoErrorAction::kFatal);
}

TEST(MdsServerShardingTest, ShardOfPathIsStableAndInRange) {
  for (std::uint32_t shards = 1; shards <= 8; ++shards) {
    for (int i = 0; i < 64; ++i) {
      const std::string path = "/route/f" + std::to_string(i);
      const auto s = ShardOfPath(path, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardOfPath(path, shards));  // pure function
    }
  }
  EXPECT_EQ(ShardOfPath("/anything", 1), 0u);
}

TEST(MdsServerLifecycleTest, MultipleServersCoexist) {
  std::vector<std::unique_ptr<MdsServer>> servers;
  for (MdsId id = 0; id < 8; ++id) {
    servers.push_back(std::make_unique<MdsServer>(id, TestConfig()));
    ASSERT_TRUE(servers.back()->Start().ok());
  }
  std::set<std::uint16_t> ports;
  for (const auto& s : servers) ports.insert(s->port());
  EXPECT_EQ(ports.size(), 8u);  // distinct ports
  for (auto& s : servers) s->Stop();
}

}  // namespace
}  // namespace ghba

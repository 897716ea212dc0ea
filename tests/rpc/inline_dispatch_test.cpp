// Inline dispatch: the event thread answers a memory-only probe itself when
// the owning shard is idle (see DESIGN.md "MdsServer shard roles").
//
// These pin the rules that make the fast path safe:
//   * an idle shard's probe is answered inline (serve.inline_requests);
//   * so are an insert, an unlink and each 2PC step, but only when the
//     journal append cannot fsync;
//   * a prepare and an unlink of its path pipelined in one write still
//     fence: the unlink is refused as intent-locked;
//   * a stalled shard's probe is never run inline: it waits for the stall;
//   * a server with spilled replicas answers probes on its workers only,
//     and they pay the simulated disk delay there;
//   * same path -> same shard -> FIFO still holds across the two paths
//     (pipelined insert -> verify, touch -> lookup);
//   * a kPing reply still means every earlier one-way frame was applied;
//   * a checkpoint taken while probes stream in recovers a consistent store;
//   * every live message type replies, batches, runs inline and lands on
//     the shard its rules say (one case per type).
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/metrics.hpp"
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
  // With no data dir the insert journals nothing: it ran inline as well.
  const std::uint64_t before = Inline();
  EXPECT_EQ(before, 1u);

  // The insert freed the shard before its reply left, so the probe that
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

TEST_F(InlineDispatchTest, InsertRunsInlineOnlyWhenItsAppendCannotFsync) {
  const auto dir = std::filesystem::temp_directory_path() / "ghba_inline_ins";
  for (const FsyncPolicy fsync :
       {FsyncPolicy::kAlways, FsyncPolicy::kInterval, FsyncPolicy::kNever}) {
    std::filesystem::remove_all(dir);
    ClusterConfig config = TestConfig();
    config.storage.data_dir = dir.string();
    config.storage.fsync = fsync;
    Boot(config);
    auto conn = Connect();
    const std::string path = PathOnShard(0, server_->shards());
    const std::string staged = PathOnShard(1, server_->shards());
    const std::string aborted = PathOnShard(1, server_->shards(), 1);
    TxnPrepareReq insert;
    insert.path = staged;
    insert.txn_id = 5;
    insert.coordinator = 0;
    insert.subop = TxnSubOp::kInsert;
    insert.participants = {0};
    TxnPrepareReq doomed = insert;
    doomed.path = aborted;
    doomed.txn_id = 6;
    // Every journaling request, each appending one WAL record: a plain
    // insert and unlink, then a whole 2PC (prepare, decide, commit; the
    // coordinator's own prepare opens the txn) and a prepare its abort
    // closes.
    const std::vector<std::pair<const char*, std::vector<std::uint8_t>>>
        requests = {
            {"insert", EncodeInsert(path, FileMetadata{})},
            {"unlink", EncodePathRequest(MsgType::kUnlink, path)},
            {"txn prepare", EncodeTxnPrepare(insert)},
            {"txn decide", EncodeTxnDecide(TxnDecideReq{5, true})},
            {"txn commit",
             EncodeTxnFinish(MsgType::kTxnCommit, TxnFinishReq{staged, 5})},
            {"txn prepare", EncodeTxnPrepare(doomed)},
            {"txn abort",
             EncodeTxnFinish(MsgType::kTxnAbort, TxnFinishReq{aborted, 6})},
        };
    for (const auto& [name, frame] : requests) {
      const std::uint64_t before = Inline();
      ASSERT_TRUE(conn.SendFrame(frame).ok());
      ASSERT_TRUE(ReadStatus(conn, Deadline::After(5000ms)).ok()) << name;
      // Inline only where the append cannot fsync.
      EXPECT_EQ(Inline() - before, fsync == FsyncPolicy::kNever ? 1u : 0u)
          << name << " under " << FsyncPolicyName(fsync);
    }
    // Inline or queued, each request journaled exactly what it would have.
    EXPECT_EQ(Counter(metrics_names::kStorageWalAppends), requests.size())
        << FsyncPolicyName(fsync);
    for (const auto& [want, probe] :
         {std::pair{false, path}, std::pair{true, staged},
          std::pair{false, aborted}}) {
      ASSERT_TRUE(
          conn.SendFrame(EncodePathRequest(MsgType::kVerify, probe)).ok());
      auto held = ReadBool(conn, Deadline::After(5000ms));
      ASSERT_TRUE(held.ok());
      EXPECT_EQ(*held, want) << probe << " under " << FsyncPolicyName(fsync);
    }
    server_->Stop();
    server_.reset();
  }
  std::filesystem::remove_all(dir);
}

TEST_F(InlineDispatchTest, PipelinedPrepareFencesTheUnlinkBehindIt) {
  ClusterConfig config = TestConfig();
  Boot(config);
  auto conn = Connect();
  const std::string path = PathOnShard(1, server_->shards());
  Insert(conn, path);
  TxnPrepareReq remove;
  remove.path = path;
  remove.txn_id = 7;
  remove.coordinator = 0;
  remove.subop = TxnSubOp::kRemove;
  remove.participants = {0};
  // Both frames in one send(2): the event thread reads them from one
  // wakeup, so the unlink finds the prepare finished (inline) or queued
  // ahead of it on the same shard, never behind it.
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(BuildWireFrame(FaultInjector::FramePlan{},
                             EncodeTxnPrepare(remove), blob));
  ASSERT_TRUE(BuildWireFrame(FaultInjector::FramePlan{},
                             EncodePathRequest(MsgType::kUnlink, path),
                             blob));
  const std::uint64_t before = Inline();
  ASSERT_EQ(::send(conn.fd(), blob.data(), blob.size(), 0),
            static_cast<ssize_t>(blob.size()));
  const auto deadline = Deadline::After(5000ms);
  EXPECT_TRUE(ReadStatus(conn, deadline).ok()) << "prepare-remove vote";
  const Status unlink = ReadStatus(conn, deadline);
  EXPECT_EQ(unlink.code(), StatusCode::kUnavailable) << unlink.ToString();
  EXPECT_NE(unlink.message().find("intent-locked"), std::string::npos)
      << unlink.ToString();
  // No data dir: both ran on the event thread.
  EXPECT_EQ(Inline() - before, 2u);

  // The fenced unlink changed nothing: the file is still there.
  ASSERT_TRUE(conn.SendFrame(EncodePathRequest(MsgType::kVerify, path)).ok());
  auto held = ReadBool(conn, deadline);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(*held);
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
  // The insert ran before any replica spilled; count from here.
  const std::uint64_t before = Inline();

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
  EXPECT_EQ(Inline(), before);
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

// What the server does with one valid frame of each live message type,
// pinned end to end so a change to the dispatch cannot move a type off its
// thread, its shard or its reply unnoticed.
struct DispatchCase {
  MsgType type;
  bool reply;      ///< a reply frame comes back (false: one-way)
  bool batchable;  ///< DecodeBatchRequest accepts it as a sub-frame
  enum Inline { kNever, kIdle, kIdleNoFsync } runs_inline;
  bool path_keyed;  ///< runs on its path's shard (else shard 0)
  std::vector<std::uint8_t> (*frame)(const std::string& path);
};

std::vector<std::uint8_t> TxnPrepareFrame(const std::string& path) {
  TxnPrepareReq req;
  req.path = path;
  req.txn_id = 41;
  req.coordinator = 0;
  req.subop = TxnSubOp::kInsert;
  req.participants = {0};
  return EncodeTxnPrepare(req);
}

std::vector<std::uint8_t> OutcomeFrame(const std::string&) {
  OutcomeReport report;
  report.level = 2;
  report.found = true;
  return EncodeOutcomeReport(report);
}

const std::vector<DispatchCase>& DispatchCases() {
  using D = DispatchCase;
  static const std::vector<DispatchCase> cases = {
      {MsgType::kLookupLocal, true, true, D::kIdle, true,
       [](const std::string& p) {
         return EncodeProbeRequest(MsgType::kLookupLocal, p, false);
       }},
      {MsgType::kGroupProbe, true, true, D::kIdle, true,
       [](const std::string& p) {
         return EncodeProbeRequest(MsgType::kGroupProbe, p, true);
       }},
      {MsgType::kGlobalProbe, true, true, D::kIdle, true,
       [](const std::string& p) {
         return EncodePathRequest(MsgType::kGlobalProbe, p);
       }},
      {MsgType::kVerify, true, true, D::kIdle, true,
       [](const std::string& p) {
         return EncodePathRequest(MsgType::kVerify, p);
       }},
      {MsgType::kTouchLru, false, false, D::kIdle, true,
       [](const std::string& p) { return EncodeTouch(p, 3); }},
      {MsgType::kInsert, true, true, D::kIdleNoFsync, true,
       [](const std::string& p) { return EncodeInsert(p, FileMetadata{}); }},
      {MsgType::kUnlink, true, true, D::kIdleNoFsync, true,
       [](const std::string& p) {
         return EncodePathRequest(MsgType::kUnlink, p);
       }},
      {MsgType::kGetFilter, true, true, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kGetFilter); }},
      {MsgType::kReplicaInstall, true, true, D::kNever, false,
       [](const std::string&) {
         return EncodeReplicaInstall(1, BloomFilter::ForCapacity(64, 8.0, 3));
       }},
      {MsgType::kReplicaDrop, true, true, D::kNever, false,
       [](const std::string&) { return EncodeReplicaDrop(1); }},
      {MsgType::kReplicaFetch, true, true, D::kNever, false,
       [](const std::string&) { return EncodeReplicaFetch(1); }},
      {MsgType::kPing, true, true, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kPing); }},
      {MsgType::kStatsSnapshot, true, true, D::kNever, false,
       [](const std::string&) {
         return EncodeHeader(MsgType::kStatsSnapshot);
       }},
      {MsgType::kReportOutcome, false, false, D::kIdle, false, OutcomeFrame},
      {MsgType::kRecoveryInfo, true, true, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kRecoveryInfo); }},
      {MsgType::kVersion, true, true, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kVersion); }},
      {MsgType::kBatch, true, false, D::kNever, false,
       [](const std::string&) {
         const std::vector<std::vector<std::uint8_t>> subs = {
             EncodeHeader(MsgType::kPing)};
         return EncodeBatch(subs);
       }},
      {MsgType::kLeaseGrant, true, true, D::kIdle, true,
       [](const std::string& p) {
         return EncodePathRequest(MsgType::kLeaseGrant, p);
       }},
      {MsgType::kTxnPrepare, true, true, D::kIdleNoFsync, true,
       TxnPrepareFrame},
      {MsgType::kTxnDecide, true, true, D::kIdleNoFsync, false,
       [](const std::string&) {
         return EncodeTxnDecide(TxnDecideReq{41, false});
       }},
      {MsgType::kTxnCommit, true, true, D::kIdleNoFsync, true,
       [](const std::string& p) {
         return EncodeTxnFinish(MsgType::kTxnCommit, TxnFinishReq{p, 41});
       }},
      {MsgType::kTxnAbort, true, true, D::kIdleNoFsync, true,
       [](const std::string& p) {
         return EncodeTxnFinish(MsgType::kTxnAbort, TxnFinishReq{p, 41});
       }},
      {MsgType::kTxnResolve, true, true, D::kNever, false,
       [](const std::string&) { return EncodeTxnResolve(41); }},
      {MsgType::kTxnList, true, true, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kTxnList); }},
      // The whole-server drain parks every shard on the maintenance thread
      // after it replies, so nothing whose inline answer is pinned follows
      // it; kShutdown stops the server and goes last.
      {MsgType::kExportFiles, true, false, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kExportFiles); }},
      {MsgType::kShutdown, false, false, D::kNever, false,
       [](const std::string&) { return EncodeHeader(MsgType::kShutdown); }},
  };
  return cases;
}

TEST_F(InlineDispatchTest, EveryTypeRunsWhereItsRulesSay) {
  // The cases cover exactly the ids the decoder accepts.
  std::vector<std::uint16_t> live;
  for (std::uint32_t raw = 0; raw <= 0xffff; ++raw) {
    const std::uint8_t bytes[2] = {static_cast<std::uint8_t>(raw & 0xff),
                                   static_cast<std::uint8_t>(raw >> 8)};
    ByteReader in(std::span<const std::uint8_t>(bytes, 2));
    if (DecodeType(in).ok()) live.push_back(static_cast<std::uint16_t>(raw));
  }
  std::vector<std::uint16_t> covered;
  for (const DispatchCase& c : DispatchCases()) {
    covered.push_back(static_cast<std::uint16_t>(c.type));
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, live);

  for (const DispatchCase& c : DispatchCases()) {
    const std::string name = std::to_string(static_cast<int>(c.type));
    const auto batch = EncodeBatch(
        std::vector<std::vector<std::uint8_t>>{c.frame("/inline/batched")});
    ByteReader in(batch);
    ASSERT_TRUE(in.GetU16().ok());
    EXPECT_EQ(DecodeBatchRequest(in).ok(), c.batchable) << "type " << name;
  }

  const auto dir = std::filesystem::temp_directory_path() / "ghba_inline_pin";
  for (const bool durable : {false, true}) {
    std::filesystem::remove_all(dir);
    ClusterConfig config = TestConfig();
    if (durable) {
      config.storage.data_dir = dir.string();
      config.storage.fsync = FsyncPolicy::kAlways;
    }
    FaultInjector injector;
    Boot(config, &injector);
    auto conn = Connect();
    auto other = Connect();
    int fresh = 0;
    // A path on shard 1, new each time, so a path-keyed frame runs off
    // shard 0.
    auto next_path = [&] { return PathOnShard(1, server_->shards(), fresh++); };
    // Send `frame`, then a kPing and a kVersion; read every reply. A
    // one-way frame's first reply is the ping's.
    auto exchange = [&](const std::vector<std::uint8_t>& frame, bool reply,
                        const std::string& what) {
      ASSERT_TRUE(conn.SendFrame(frame).ok()) << what;
      ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kPing)).ok()) << what;
      ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kVersion)).ok())
          << what;
      const auto deadline = Deadline::After(10000ms);
      if (reply) {
        ASSERT_TRUE(conn.RecvFrame(deadline).ok()) << what;
      }
      EXPECT_TRUE(ReadStatus(conn, deadline).ok()) << what << ": ping";
      auto version = conn.RecvFrame(deadline);
      ASSERT_TRUE(version.ok()) << what;
      ByteReader vin(*version);
      auto env = OpenEnvelope(vin);
      ASSERT_TRUE(env.ok()) << what;
      EXPECT_TRUE(env->has_payload) << what << ": replies out of step";
    };
    // Leave both shards idle: internal work an earlier frame queued on
    // either (a replica drop's L1 purge) finishes before this probe's reply.
    auto settle = [&] {
      for (std::uint32_t s = 0; s < server_->shards(); ++s) {
        ASSERT_TRUE(other
                        .SendFrame(EncodePathRequest(
                            MsgType::kVerify, PathOnShard(s, 2, 1000)))
                        .ok());
        ASSERT_TRUE(ReadBool(other, Deadline::After(10000ms)).ok());
      }
    };

    for (const DispatchCase& c : DispatchCases()) {
      const std::string what = "type " +
                               std::to_string(static_cast<int>(c.type)) +
                               (durable ? " fsync=always" : " no data dir");
      const bool eligible =
          c.runs_inline == DispatchCase::kIdle ||
          (c.runs_inline == DispatchCase::kIdleNoFsync && !durable);
      if (c.type == MsgType::kShutdown) {
        const std::uint64_t before = Inline();
        ASSERT_TRUE(conn.SendFrame(c.frame(next_path())).ok());
        ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kPing)).ok());
        // No reply, and the ping behind it is never served.
        EXPECT_FALSE(conn.RecvFrame(Deadline::After(10000ms)).ok()) << what;
        EXPECT_EQ(Inline(), before) << what;
        break;
      }

      settle();
      const std::uint64_t before = Inline();
      exchange(c.frame(next_path()), c.reply, what);
      EXPECT_EQ(Inline() - before, eligible ? 1u : 0u) << what;
      if (!eligible) continue;

      // Which shard it runs on: a frame whose shard is stalled is queued,
      // not answered inline. Both frames counted means the event thread
      // has made the first one's dispatch decision.
      const std::uint32_t home = c.path_keyed ? 1 : 0;
      for (const std::uint32_t stalled : {home, 1 - home}) {
        settle();
        const std::uint64_t at = Inline();
        const std::uint64_t in_before = server_->frames_in();
        injector.StallShard(0, stalled);
        ASSERT_TRUE(conn.SendFrame(c.frame(next_path())).ok());
        ASSERT_TRUE(conn.SendFrame(EncodeHeader(MsgType::kVersion)).ok());
        const auto guard = std::chrono::steady_clock::now() + 10s;
        while (server_->frames_in() < in_before + 2 &&
               std::chrono::steady_clock::now() < guard) {
          std::this_thread::yield();
        }
        injector.UnstallShard(0, stalled);
        const auto deadline = Deadline::After(10000ms);
        if (c.reply) {
          ASSERT_TRUE(conn.RecvFrame(deadline).ok()) << what;
        }
        ASSERT_TRUE(conn.RecvFrame(deadline).ok()) << what;
        EXPECT_EQ(Inline() - at, stalled == home ? 0u : 1u)
            << what << " with shard " << stalled << " stalled";
      }
    }
    server_->Stop();
    server_.reset();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ghba

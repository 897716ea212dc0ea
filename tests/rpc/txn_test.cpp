// Distributed namespace transactions (the PR's tentpole): a rename across
// two MDSs is one WAL-journaled two-phase commit, `Decide(commit)` durable
// at the coordinator is the ack point, and a crash of EITHER participant
// at EVERY phase boundary must recover to exactly one of the endpoints —
// the old name or the new name, never both, never neither. The crash cases
// run parameterized over every boundary so a new phase cannot ship without
// a crash test; the halt cases kill the *client* mid-drive instead and let
// in-doubt resolution finish the job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/metrics.hpp"
#include "hash/fnv.hpp"
#include "rpc/prototype_cluster.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"

namespace ghba {
namespace {

ClusterConfig TxnConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 7;
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

/// Where CreateExclusive / the rename dst lands: the deterministic hash
/// placement over the id-sorted alive set (mirrors the orchestrator).
MdsId HashHome(PrototypeCluster& cluster, const std::string& path) {
  const auto alive = cluster.AliveServers();
  EXPECT_FALSE(alive.empty());
  return alive[Fnv1a64(path) % alive.size()];
}

/// A dst name whose hash placement differs from (or equals, per `cross`)
/// `src_home`, so a test can force the cross-MDS or same-MDS shape.
std::string PickDst(PrototypeCluster& cluster, MdsId src_home, bool cross) {
  for (int i = 0; i < 256; ++i) {
    const std::string candidate = "/txn/dst" + std::to_string(i);
    if ((HashHome(cluster, candidate) != src_home) == cross) return candidate;
  }
  ADD_FAILURE() << "no dst candidate with the required placement";
  return "/txn/dst0";
}

std::map<std::string, MdsId> BuildNamespace(PrototypeCluster& cluster,
                                            int files) {
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < files; ++i) {
    const auto path = "/base/f" + std::to_string(i);
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(cluster.Insert(path, md).ok());
  }
  EXPECT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < files; ++i) {
    const auto path = "/base/f" + std::to_string(i);
    const auto r = cluster.Lookup(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) home_of[path] = r->home;
  }
  return home_of;
}

void ExpectAllLookupsCorrect(PrototypeCluster& cluster,
                             const std::map<std::string, MdsId>& home_of) {
  for (const auto& [path, home] : home_of) {
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }
}

/// One request/response on a fresh connection to `port`; empty on error.
std::vector<std::uint8_t> RawCall(std::uint16_t port,
                                  const std::vector<std::uint8_t>& req) {
  auto conn = TcpConnection::Connect(port);
  EXPECT_TRUE(conn.ok());
  if (!conn.ok() || !conn->SendFrame(req).ok()) return {};
  auto resp = conn->RecvFrame(Deadline::After(std::chrono::seconds(5)));
  EXPECT_TRUE(resp.ok());
  return resp.ok() ? std::move(*resp) : std::vector<std::uint8_t>{};
}

/// The in-doubt ops on the server at `port` (its kTxnList), read without
/// resolving them.
std::vector<TxnListEntry> InDoubtAt(std::uint16_t port) {
  const auto resp = RawCall(port, EncodeHeader(MsgType::kTxnList));
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  EXPECT_TRUE(env.ok() && env->has_payload);
  if (!env.ok() || !env->has_payload) return {};
  auto list = DecodeTxnListResp(in);
  EXPECT_TRUE(list.ok());
  return list.ok() ? std::move(list->entries) : std::vector<TxnListEntry>{};
}

/// A plain kInsert of `path` on the server at `port`.
Status InsertAt(std::uint16_t port, const std::string& path,
                const FileMetadata& md) {
  const auto resp = RawCall(port, EncodeInsert(path, md));
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  return env.ok() ? env->status : env.status();
}

/// The verdict the server at `port` gives a resolver for `txn_id` (its
/// kTxnResolve answer).
TxnDecisionState VerdictAt(std::uint16_t port, std::uint64_t txn_id) {
  const auto resp = RawCall(port, EncodeTxnResolve(txn_id));
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  EXPECT_TRUE(env.ok() && env->has_payload);
  const auto resolved = DecodeTxnResolveResp(in);
  EXPECT_TRUE(resolved.ok());
  return resolved.ok() ? resolved->state : TxnDecisionState::kUnknown;
}

/// Sum of a server-side counter over the live servers.
std::uint64_t ServeSum(PrototypeCluster& cluster, const char* name) {
  std::uint64_t total = 0;
  for (const MdsId id : cluster.AliveServers()) {
    const auto stats = cluster.FetchStats(id);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    if (stats.ok()) total += stats->metrics.CounterOr(name);
  }
  return total;
}

/// The exactly-one-endpoint invariant every txn test ends on: an acked
/// rename resolves to dst, an unacked one to src, and never to both.
void ExpectRenameEndpoint(PrototypeCluster& cluster, const std::string& src,
                          const std::string& dst, bool acked) {
  const auto src_r = cluster.Lookup(src);
  const auto dst_r = cluster.Lookup(dst);
  ASSERT_TRUE(src_r.ok()) << src_r.status().ToString();
  ASSERT_TRUE(dst_r.ok()) << dst_r.status().ToString();
  EXPECT_EQ(src_r->found, !acked) << "src presence";
  EXPECT_EQ(dst_r->found, acked) << "dst presence";
  EXPECT_FALSE(src_r->found && dst_r->found) << "half-applied rename";
}

TEST(TxnTest, CrossServerRenameMovesTheFileAtomically) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 24);

  const std::string src = "/txn/src";
  FileMetadata md;
  md.inode = 42;
  ASSERT_TRUE(cluster.Insert(src, md).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok());
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);
  const MdsId dst_home = HashHome(cluster, dst);

  ASSERT_TRUE(cluster.Rename(src, dst).ok());

  ExpectRenameEndpoint(cluster, src, dst, /*acked=*/true);
  const auto moved = cluster.Lookup(dst);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->home, dst_home);
  // The new name is a plain file afterwards: no lingering intent lock.
  EXPECT_TRUE(cluster.Unlink(dst).ok());
  ExpectAllLookupsCorrect(cluster, home_of);
}

TEST(TxnTest, SameServerRenameWorksThroughTheSameMachinery) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string src = "/txn/samesrc";
  ASSERT_TRUE(cluster.Insert(src, FileMetadata{}).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok());
  const std::string dst = PickDst(cluster, src_r->home, /*cross=*/false);

  ASSERT_TRUE(cluster.Rename(src, dst).ok());
  ExpectRenameEndpoint(cluster, src, dst, /*acked=*/true);
}

TEST(TxnTest, RenameRejectsBadArguments) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Insert("/txn/a", FileMetadata{}).ok());
  ASSERT_TRUE(cluster.Insert("/txn/b", FileMetadata{}).ok());

  EXPECT_EQ(cluster.Rename("/txn/a", "/txn/a").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cluster.Rename("/txn/missing", "/txn/c").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cluster.Rename("/txn/a", "/txn/b").code(),
            StatusCode::kAlreadyExists);
  // The refused drives left both names fully usable.
  EXPECT_TRUE(cluster.Unlink("/txn/a").ok());
  EXPECT_TRUE(cluster.Unlink("/txn/b").ok());
}

TEST(TxnTest, CreateExclusiveCreatesOnceAtTheHashHome) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string path = "/txn/excl";
  FileMetadata md;
  md.inode = 7;
  ASSERT_TRUE(cluster.CreateExclusive(path, md).ok());
  const auto r = cluster.Lookup(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
  EXPECT_EQ(r->home, HashHome(cluster, path));

  EXPECT_EQ(cluster.CreateExclusive(path, md).code(),
            StatusCode::kAlreadyExists);
  // Plain Insert sees it too, and the file is a plain file afterwards.
  EXPECT_TRUE(cluster.Unlink(path).ok());
  EXPECT_TRUE(cluster.CreateExclusive(path, md).ok());
}

/// Frames the servers received for `op`, fire-and-forget frames included:
/// a Quiesce on each side flushes them, and the closing Quiesce's own pings
/// (one per pooled connection, counted by a second Quiesce over the same
/// pool) are taken back out.
template <typename Op>
std::uint64_t FramesOf(PrototypeCluster& cluster, Op op) {
  EXPECT_TRUE(cluster.Quiesce().ok());
  const std::uint64_t start = cluster.TotalFramesIn();
  op();
  EXPECT_TRUE(cluster.Quiesce().ok());
  const std::uint64_t flushed = cluster.TotalFramesIn();
  EXPECT_TRUE(cluster.Quiesce().ok());
  const std::uint64_t pings = cluster.TotalFramesIn() - flushed;
  return flushed - start - pings;
}

// The wire traffic of the two drives, pinned on a fixed seed so the
// Router's entry draws repeat. A CreateExclusive is its prepare plus the
// exact check's five kGlobalProbes and one outcome report, then decide and
// commit: 9. A cross-server rename of a published src is those 9 plus the
// remove prepare, the second commit and the four frames of the lookup that
// locates src on this seed: 15.
TEST(TxnTest, DrivesSendAFixedNumberOfFrames) {
  ClusterConfig config = TxnConfig();
  // Default deadlines: a retry on a loaded machine would resend a frame.
  config.rpc = RpcOptions{};
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  FileMetadata md;
  md.inode = 5;
  EXPECT_EQ(FramesOf(cluster,
                     [&] {
                       EXPECT_TRUE(
                           cluster.CreateExclusive("/txn/pinned", md).ok());
                     }),
            9u);

  const std::string src = "/txn/pinsrc";
  ASSERT_TRUE(cluster.Insert(src, md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok() && src_r->found);
  const std::string dst = PickDst(cluster, src_r->home, /*cross=*/true);
  EXPECT_EQ(FramesOf(cluster,
                     [&] { EXPECT_TRUE(cluster.Rename(src, dst).ok()); }),
            15u);
}

// The exact check of a create's path rides its insert prepare. A path
// held off its hash home (inserted straight on the next server, never
// published) is found in that round: the drive is AlreadyExists, src
// stays, and nothing stays staged anywhere, because the hash home's yes
// vote is aborted in the same call.
TEST(TxnTest, DstHeldOffItsHashHomeRefusesAndLeavesNothingStaged) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto ports = cluster.ServerPorts();
  ASSERT_EQ(ports.size(), 6u);  // index == id while every server is up
  const std::string src = "/txn/heldsrc";
  FileMetadata md;
  md.inode = 31;
  ASSERT_TRUE(cluster.Insert(src, md).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok() && src_r->found);
  const MdsId src_home = src_r->home;

  // Plants `path` on the server after its hash home; returns the holder.
  const auto hold_off_home = [&](const std::string& path) {
    const MdsId holder = (HashHome(cluster, path) + 1) % 6;
    EXPECT_TRUE(InsertAt(ports[holder], path, md).ok()) << path;
    return holder;
  };
  const auto expect_nothing_staged = [&](const std::string& path,
                                         std::uint64_t prepares_before,
                                         std::uint64_t aborts_before) {
    // Every yes vote was closed by an abort: none left in doubt.
    const std::uint64_t prepares =
        ServeSum(cluster, metrics_names::kServeTxnPrepares) - prepares_before;
    EXPECT_GE(prepares, 1u) << path;
    EXPECT_EQ(ServeSum(cluster, metrics_names::kServeTxnAborts) -
                  aborts_before,
              prepares)
        << path;
    for (MdsId id = 0; id < ports.size(); ++id) {
      EXPECT_TRUE(InDoubtAt(ports[id]).empty()) << path << " on " << id;
    }
    const auto hash_home = cluster.VerifyOn(HashHome(cluster, path), path);
    ASSERT_TRUE(hash_home.ok());
    EXPECT_FALSE(*hash_home) << path << " was created at its hash home";
  };

  for (const bool cross : {true, false}) {
    const std::string dst = PickDst(cluster, src_home, cross);
    const MdsId holder = hold_off_home(dst);
    const std::uint64_t prepares =
        ServeSum(cluster, metrics_names::kServeTxnPrepares);
    const std::uint64_t aborts =
        ServeSum(cluster, metrics_names::kServeTxnAborts);
    EXPECT_EQ(cluster.Rename(src, dst).code(), StatusCode::kAlreadyExists)
        << dst;
    expect_nothing_staged(dst, prepares, aborts);
    const auto still = cluster.Lookup(src);
    ASSERT_TRUE(still.ok());
    EXPECT_TRUE(still->found) << "src lost by a refused rename onto " << dst;
    const auto held = cluster.VerifyOn(holder, dst);
    ASSERT_TRUE(held.ok());
    EXPECT_TRUE(*held);
  }

  const std::string created = "/txn/heldnew";
  hold_off_home(created);
  const std::uint64_t prepares =
      ServeSum(cluster, metrics_names::kServeTxnPrepares);
  const std::uint64_t aborts =
      ServeSum(cluster, metrics_names::kServeTxnAborts);
  EXPECT_EQ(cluster.CreateExclusive(created, md).code(),
            StatusCode::kAlreadyExists);
  expect_nothing_staged(created, prepares, aborts);
}

// --- client-death (halt) cases: the driver stops mid-choreography, the
// servers stay up, and ResolveInDoubt must finish what the decision (or
// presumed abort) dictates. ---------------------------------------------

TEST(TxnTest, HaltedPrepareLeavesIntentLockUntilResolutionAborts) {
  FaultInjector injector;
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string src = "/txn/haltsrc";
  ASSERT_TRUE(cluster.Insert(src, FileMetadata{}).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok());
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);

  injector.ArmCrashPoint("txnhalt.prepare.0");
  const Status halted = cluster.Rename(src, dst);
  ASSERT_FALSE(halted.ok());
  EXPECT_EQ(halted.code(), StatusCode::kUnavailable);

  // The in-doubt prepare fences plain mutations on src...
  const Status fenced = cluster.Unlink(src);
  ASSERT_FALSE(fenced.ok());
  EXPECT_EQ(fenced.code(), StatusCode::kUnavailable);
  EXPECT_NE(fenced.ToString().find("intent-locked"), std::string::npos);

  // ...until resolution force-aborts it (the coordinator never decided,
  // so kPending resolves to abort), after which src is a plain file again.
  const auto left = cluster.ResolveInDoubt(src_home);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(*left, 0u);
  ExpectRenameEndpoint(cluster, src, dst, /*acked=*/false);
  EXPECT_TRUE(cluster.Unlink(src).ok());
}

TEST(TxnTest, HaltAfterDecideIsAckedAndResolutionRollsForward) {
  FaultInjector injector;
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string src = "/txn/fwdsrc";
  ASSERT_TRUE(cluster.Insert(src, FileMetadata{}).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok());
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);
  const MdsId dst_home = HashHome(cluster, dst);

  // The commit decision is durable, then the client dies before sending a
  // single commit. Ok was already owed to the caller — "no acked rename
  // lost" must hold purely through resolution.
  injector.ArmCrashPoint("txnhalt.decide.0");
  ASSERT_TRUE(cluster.Rename(src, dst).ok());

  for (const MdsId id : {dst_home, src_home}) {
    const auto left = cluster.ResolveInDoubt(id);
    ASSERT_TRUE(left.ok()) << left.status().ToString();
    EXPECT_EQ(*left, 0u) << "server " << id;
  }
  ExpectRenameEndpoint(cluster, src, dst, /*acked=*/true);
}

// A refused dst prepare turns the drive into Decide(abort), and the client
// dies right after it, before releasing src's prepare. The coordinator
// answers the resolver "aborted", and resolution releases src.
TEST(TxnTest, HaltAfterAbortDecisionResolvesAborted) {
  FaultInjector injector;
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const auto ports = cluster.ServerPorts();

  const std::string src = "/txn/abortsrc";
  ASSERT_TRUE(cluster.Insert(src, FileMetadata{}).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok() && src_r->found);
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);
  // At its hash home, so the dst prepare itself votes no.
  ASSERT_TRUE(cluster.CreateExclusive(dst, FileMetadata{}).ok());

  injector.ArmCrashPoint("txnhalt.decide.0");
  EXPECT_EQ(cluster.Rename(src, dst).code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(injector.HasArmedCrashPoints()) << "no abort decision ran";

  const auto listed = InDoubtAt(ports[src_home]);
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].path, src);
  EXPECT_EQ(VerdictAt(ports[src_home], listed[0].txn_id),
            TxnDecisionState::kAborted);

  const auto left = cluster.ResolveInDoubt(src_home);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(*left, 0u);
  EXPECT_TRUE(InDoubtAt(ports[src_home]).empty());
  const auto still = cluster.Lookup(src);
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->found) << "an aborted rename moved src";
  EXPECT_TRUE(cluster.Unlink(src).ok()) << "src still intent-locked";
}

// A prepare whose coordinator never saw the txn: the coordinator answers
// "unknown", which resolves as aborted and frees the path.
TEST(TxnTest, PrepareUnknownToItsCoordinatorResolvesAborted) {
  PrototypeCluster cluster(TxnConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto ports = cluster.ServerPorts();

  const std::string path = "/txn/orphan";
  const MdsId home = HashHome(cluster, path);
  const MdsId coordinator = (home + 1) % ports.size();
  TxnPrepareReq req;
  req.path = path;
  req.txn_id = 9001;
  req.coordinator = coordinator;
  req.subop = TxnSubOp::kInsert;
  req.participants = {home};
  const auto resp = RawCall(ports[home], EncodeTxnPrepare(req));
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  ASSERT_TRUE(env.ok() && env->status.ok());

  EXPECT_EQ(InsertAt(ports[home], path, FileMetadata{}).code(),
            StatusCode::kUnavailable)
      << "the prepared path is not intent-locked";
  EXPECT_EQ(VerdictAt(ports[coordinator], req.txn_id),
            TxnDecisionState::kUnknown);

  const auto left = cluster.ResolveInDoubt(home);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(*left, 0u);
  EXPECT_TRUE(InDoubtAt(ports[home]).empty());
  EXPECT_TRUE(InsertAt(ports[home], path, FileMetadata{}).ok());
}

// --- server-crash matrix: kill the targeted MDS at every message boundary
// of the choreography, restart it (fail-over + durable recovery + rejoin +
// automatic in-doubt resolution), and audit the endpoint invariant. ------

struct CrashCase {
  const char* tag;     ///< FaultInjector crash point armed before the drive
  bool victim_is_dst;  ///< which home dies (false: src_home == coordinator)
  bool acked;          ///< Rename must return Ok iff the decision preceded
  const char* name;
  /// The victim is a coordinator that dies with the txn open: once
  /// recovered, before any resolution, it must still answer kPending.
  bool open_at_restart = false;
};

/// Boot a second incarnation of server `id` over a copy of its data dir
/// (recovery, no resolution: nothing else talks to it), and ask it what
/// its one in-doubt txn is: the coordinator's verdict as a resolver sees it.
TxnDecisionState RecoveredVerdict(const ClusterConfig& base,
                                  const std::filesystem::path& data_dir,
                                  MdsId id) {
  const std::string mds = "mds-" + std::to_string(id);
  const auto copy = data_dir / "recovered-copy";
  std::filesystem::create_directories(copy);
  std::filesystem::copy(data_dir / mds, copy / mds,
                        std::filesystem::copy_options::recursive);
  ClusterConfig config = base;
  config.storage.data_dir = copy.string();
  MdsServer server(id, config);
  EXPECT_TRUE(server.Start().ok());
  TxnDecisionState verdict = TxnDecisionState::kUnknown;
  const auto listed = InDoubtAt(server.port());
  if (listed.size() == 1 && listed[0].coordinator == id) {
    verdict = VerdictAt(server.port(), listed[0].txn_id);
  } else {
    ADD_FAILURE() << "expected one in-doubt op coordinated by " << id;
  }
  server.Stop();
  std::filesystem::remove_all(copy);
  return verdict;
}

/// A fresh data dir per test, named after it: ctest runs tests in
/// parallel, and the suite name tells the fsync instantiations apart.
class DataDirFixture {
 protected:
  void MakeDataDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() / ("ghba_txncrash_" + name);
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

class TxnDurableTest : public ::testing::Test, protected DataDirFixture {
 protected:
  void SetUp() override { MakeDataDir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

// A heart-beat says a coordinator is down, not that its journal is gone.
// The client dies right after the commit decision (the rename is acked),
// then the coordinator crashes before any commit reached a participant.
// Resolving dst_home while the coordinator is down must leave its op in
// doubt: a presumed abort there would drop dst while the restarted
// coordinator rolls its committed remove forward, losing both names.
TEST_F(TxnDurableTest, DownCoordinatorKeepsItsParticipantsInDoubt) {
  ClusterConfig config = TxnConfig();
  config.storage.data_dir = dir_.string();
  config.rpc = RpcOptions{};
  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string src = "/txn/downsrc";
  ASSERT_TRUE(cluster.Insert(src, FileMetadata{}).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok() && src_r->found);
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);
  const MdsId dst_home = HashHome(cluster, dst);

  injector.ArmCrashPoint("txnhalt.decide.0");
  ASSERT_TRUE(cluster.Rename(src, dst).ok());
  ASSERT_TRUE(cluster.CrashServer(src_home).ok());

  const auto left = cluster.ResolveInDoubt(dst_home);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(*left, 1u) << "resolved without the coordinator's verdict";

  const auto info = cluster.RestartServer(src_home);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->txn_in_doubt, 0u);
  ExpectRenameEndpoint(cluster, src, dst, /*acked=*/true);
}

class TxnCrashTest
    : public ::testing::TestWithParam<std::tuple<CrashCase, FsyncPolicy>>,
      protected DataDirFixture {
 protected:
  void SetUp() override { MakeDataDir(); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

TEST_P(TxnCrashTest, CrashAtPhaseBoundaryRecoversToExactlyOneEndpoint) {
  const auto& [c, fsync] = GetParam();
  ClusterConfig config = TxnConfig();
  config.storage.data_dir = dir_.string();
  config.storage.fsync = fsync;
  // Default deadlines: an fsync'd call must not time out on a loaded
  // machine; only the crash point may fail a call here.
  config.rpc = RpcOptions{};

  FaultInjector injector;
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const auto home_of = BuildNamespace(cluster, 24);

  const std::string src = "/txn/crashsrc";
  FileMetadata md;
  md.inode = 4242;
  ASSERT_TRUE(cluster.Insert(src, md).ok());
  const auto src_r = cluster.Lookup(src);
  ASSERT_TRUE(src_r.ok());
  const MdsId src_home = src_r->home;
  const std::string dst = PickDst(cluster, src_home, /*cross=*/true);
  const MdsId dst_home = HashHome(cluster, dst);
  const MdsId victim = c.victim_is_dst ? dst_home : src_home;

  injector.ArmCrashPoint(c.tag);
  const Status drove = cluster.Rename(src, dst);
  EXPECT_EQ(drove.ok(), c.acked) << drove.ToString();

  // Kill -9 semantics: the armed point was consumed (the victim actually
  // died mid-protocol). Whether the topology already failed it over is
  // timing-dependent and deliberately not asserted.
  EXPECT_FALSE(injector.HasArmedCrashPoints())
      << "the armed crash point never fired";

  if (c.open_at_restart) {
    EXPECT_EQ(RecoveredVerdict(config, dir_, victim),
              TxnDecisionState::kPending)
        << "the coordinator's prepare no longer holds its txn open";
  }

  // Restart = fail-over + durable recovery + rejoin + in-doubt resolution.
  // Whatever the crash left in doubt must be resolved by the time the
  // restart returns — the caller never babysits recovery.
  const auto info = cluster.RestartServer(victim);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->durable);
  EXPECT_EQ(info->txn_in_doubt, 0u) << "unresolved in-doubt prepares";

  // An acked rename resolved to dst with the original inode; an unacked
  // one left src untouched. Never both names, never neither.
  ExpectRenameEndpoint(cluster, src, dst, c.acked);
  ExpectAllLookupsCorrect(cluster, home_of);

  // The surviving name is a plain file: rename it once more, cleanly.
  const std::string survivor = c.acked ? dst : src;
  ASSERT_TRUE(cluster.Rename(survivor, "/txn/after").ok());
  const auto after = cluster.Lookup("/txn/after");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->found);
}

constexpr CrashCase kCrashCases[] = {
    // src_home, the coordinator, dies after journaling its prepare-remove,
    // which opened the txn there: the decision can never be journaled.
    // Recovery brings the txn back open (kPending), and restart
    // resolution force-aborts it.
    CrashCase{"txn.prepare.0", false, false, "SrcAfterPrepare", true},
    // dst_home dies after journaling its prepare-insert: the decision
    // still commits at the live coordinator — acked, rolled forward into
    // the dead server's recovery.
    CrashCase{"txn.prepare.1", true, true, "DstAfterPrepare"},
    // Coordinator dies with the commit decision durable but no commit
    // sent to itself: acked, self-resolution applies the remove.
    CrashCase{"txn.decide.0", false, true, "CoordAfterDecide"},
    // dst_home dies after applying its commit: acked, recovery replays the
    // journaled commit, nothing left in doubt.
    CrashCase{"txn.commit.0", true, true, "DstAfterCommit"},
    // src_home dies after the final commit: the txn was fully closed.
    CrashCase{"txn.commit.1", false, true, "SrcAfterCommit"},
};

std::string CrashCaseName(
    const ::testing::TestParamInfo<std::tuple<CrashCase, FsyncPolicy>>&
        info) {
  return std::get<0>(info.param).name;
}

// A crash stops the server's loop without losing what its WAL wrote, as
// kill -9 keeps the page cache, so fsync=never is sound here too.
INSTANTIATE_TEST_SUITE_P(
    AllBoundaries, TxnCrashTest,
    ::testing::Combine(::testing::ValuesIn(kCrashCases),
                       ::testing::Values(FsyncPolicy::kAlways)),
    CrashCaseName);
INSTANTIATE_TEST_SUITE_P(
    AllBoundariesInline, TxnCrashTest,
    ::testing::Combine(::testing::ValuesIn(kCrashCases),
                       ::testing::Values(FsyncPolicy::kNever)),
    CrashCaseName);

}  // namespace
}  // namespace ghba

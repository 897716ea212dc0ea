// TxnDriver: the client-side 2PC choreography, over a recording fake
// transport. Pins the message order of a rename (the crash matrices in
// tests/rpc/txn_test.cpp and tools/txn_chaos name their boundaries by it)
// and the count of closing commits a halted drive leaves to resolution.
#include "txn/txn_driver.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ghba {
namespace {

/// One message the driver sent.
struct Sent {
  TxnPhase phase;
  MdsId target;
  std::string path;  ///< empty for decide
  bool operator==(const Sent& other) const {
    return phase == other.phase && target == other.target &&
           path == other.path;
  }
};

std::ostream& operator<<(std::ostream& os, const Sent& s) {
  return os << TxnPhaseName(s.phase) << "(" << s.target << "," << s.path
            << ")";
}

constexpr std::uint64_t kSrcInode = 77;

/// Accepts every message and records it. A remove prepare votes yes with
/// metadata carrying kSrcInode.
class RecordingTransport : public TxnTransport {
 public:
  Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) override {
    sent.push_back({TxnPhase::kPrepare, participant, op.path});
    prepared.push_back(op);
    if (op.subop == TxnSubOp::kInsert) {
      inserted_inode = op.metadata.inode;
      return std::optional<FileMetadata>();
    }
    FileMetadata md;
    md.inode = kSrcInode;
    return std::optional<FileMetadata>(md);
  }
  Status TxnDecide(MdsId coordinator, std::uint64_t, bool commit) override {
    sent.push_back({TxnPhase::kDecide, coordinator, ""});
    decisions.push_back(commit);
    return Status::Ok();
  }
  Status TxnCommit(MdsId participant, std::uint64_t,
                   const std::string& path) override {
    sent.push_back({TxnPhase::kCommit, participant, path});
    return Status::Ok();
  }
  Status TxnAbort(MdsId participant, std::uint64_t,
                  const std::string& path) override {
    sent.push_back({TxnPhase::kAbort, participant, path});
    return Status::Ok();
  }
  Result<std::vector<TxnPendingOp>> TxnList(MdsId) override {
    return std::vector<TxnPendingOp>();
  }
  Result<TxnDecisionState> TxnQueryDecision(MdsId, std::uint64_t) override {
    return TxnDecisionState::kUnknown;
  }

  std::vector<Sent> sent;
  std::vector<TxnPendingOp> prepared;
  std::vector<bool> decisions;
  std::uint64_t inserted_inode = 0;
};

/// A hook that halts the drive after the `n`-th (1-based) step of `phase`.
TxnDriver::StepHook HaltAfter(TxnPhase phase, int n) {
  return [phase, n](TxnPhase at, std::uint32_t k, MdsId) {
    return at != phase || static_cast<int>(k) + 1 != n;
  };
}

std::vector<Sent> Choreography(MdsId src_home, MdsId dst_home) {
  return {{TxnPhase::kPrepare, src_home, "/src"},
          {TxnPhase::kPrepare, dst_home, "/dst"},
          {TxnPhase::kDecide, src_home, ""},
          {TxnPhase::kCommit, dst_home, "/dst"},
          {TxnPhase::kCommit, src_home, "/src"}};
}

/// Every prepare names the coordinator and the participant list, so the
/// coordinator's own prepare (the first) is what opens the txn there.
void ExpectPreparesOpenAtTheCoordinator(const RecordingTransport& transport,
                                        MdsId coordinator,
                                        const std::vector<MdsId>& members) {
  ASSERT_FALSE(transport.sent.empty());
  EXPECT_EQ(transport.sent.front().phase, TxnPhase::kPrepare);
  EXPECT_EQ(transport.sent.front().target, coordinator);
  for (const TxnPendingOp& op : transport.prepared) {
    EXPECT_EQ(op.coordinator, coordinator) << op.path;
    EXPECT_EQ(op.participants, members) << op.path;
  }
}

TEST(TxnDriverTest, CrossServerRenameSendsTheFiveMessagesInOrder) {
  RecordingTransport transport;
  // The hook sees each message's position within its phase: the k of the
  // crash point txn.<phase>.<k>.
  std::vector<std::pair<TxnPhase, std::uint32_t>> steps;
  TxnDriver driver(&transport, [&steps](TxnPhase phase, std::uint32_t k,
                                        MdsId) {
    steps.emplace_back(phase, k);
    return true;
  });
  TxnDriveStats stats;
  ASSERT_TRUE(driver.Rename(9, "/src", 1, "/dst", 2, &stats).ok());
  EXPECT_EQ(transport.sent, Choreography(1, 2));
  const std::vector<std::pair<TxnPhase, std::uint32_t>> positions = {
      {TxnPhase::kPrepare, 0},
      {TxnPhase::kPrepare, 1},
      {TxnPhase::kDecide, 0},
      {TxnPhase::kCommit, 0},
      {TxnPhase::kCommit, 1}};
  EXPECT_EQ(steps, positions);
  ExpectPreparesOpenAtTheCoordinator(transport, 1, {1, 2});
  EXPECT_EQ(transport.decisions, std::vector<bool>{true});
  // The insert prepare stages the metadata the remove vote carried.
  EXPECT_EQ(transport.inserted_inode, kSrcInode);
  EXPECT_EQ(stats.messages, 5u);
  EXPECT_EQ(stats.commits_pending, 0u);
  EXPECT_FALSE(stats.halted);
}

TEST(TxnDriverTest, SameServerRenameSendsTheSameFiveMessages) {
  RecordingTransport transport;
  TxnDriver driver(&transport);
  TxnDriveStats stats;
  ASSERT_TRUE(driver.Rename(9, "/src", 3, "/dst", 3, &stats).ok());
  EXPECT_EQ(transport.sent, Choreography(3, 3));
  ExpectPreparesOpenAtTheCoordinator(transport, 3, {3});
  EXPECT_EQ(stats.messages, 5u);
  EXPECT_EQ(stats.commits_pending, 0u);
}

TEST(TxnDriverTest, CreateExclusiveSendsThreeMessagesToItsHome) {
  RecordingTransport transport;
  TxnDriver driver(&transport);
  TxnDriveStats stats;
  FileMetadata md;
  md.inode = 5;
  ASSERT_TRUE(driver.CreateExclusive(9, "/new", 4, md, &stats).ok());
  EXPECT_EQ(transport.sent, (std::vector<Sent>{
                                {TxnPhase::kPrepare, 4, "/new"},
                                {TxnPhase::kDecide, 4, ""},
                                {TxnPhase::kCommit, 4, "/new"}}));
  ExpectPreparesOpenAtTheCoordinator(transport, 4, {4});
  EXPECT_EQ(transport.inserted_inode, 5u);
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.commits_pending, 0u);
}

TEST(TxnDriverTest, HaltAfterCreateExclusiveDecideLeavesItsCommitPending) {
  RecordingTransport transport;
  TxnDriver driver(&transport, HaltAfter(TxnPhase::kDecide, 1));
  TxnDriveStats stats;
  ASSERT_TRUE(driver.CreateExclusive(9, "/new", 4, FileMetadata{}, &stats)
                  .ok());
  EXPECT_EQ(stats.messages, 2u);
  EXPECT_EQ(stats.commits_pending, 1u);
  EXPECT_TRUE(stats.halted);
}

TEST(TxnDriverTest, HaltAfterDecideLeavesBothCommitsPending) {
  for (const MdsId dst_home : {MdsId{2}, MdsId{1}}) {
    RecordingTransport transport;
    TxnDriver driver(&transport, HaltAfter(TxnPhase::kDecide, 1));
    TxnDriveStats stats;
    ASSERT_TRUE(driver.Rename(9, "/src", 1, "/dst", dst_home, &stats).ok());
    EXPECT_EQ(stats.messages, 3u) << dst_home;
    EXPECT_EQ(stats.commits_pending, 2u) << dst_home;
    EXPECT_TRUE(stats.halted);
  }
}

// A halt after a commit owes only the commits not yet sent. Counted by the
// commit's position, not by its server: in a same-server rename both
// commits go to dst_home.
TEST(TxnDriverTest, HaltAfterEachCommitOwesOnlyTheUnsentCommits) {
  for (const MdsId dst_home : {MdsId{2}, MdsId{1}}) {
    for (int halt_at = 1; halt_at <= 2; ++halt_at) {
      RecordingTransport transport;
      TxnDriver driver(&transport, HaltAfter(TxnPhase::kCommit, halt_at));
      TxnDriveStats stats;
      ASSERT_TRUE(
          driver.Rename(9, "/src", 1, "/dst", dst_home, &stats).ok());
      const auto full = Choreography(1, dst_home);
      EXPECT_EQ(transport.sent,
                std::vector<Sent>(full.begin(), full.begin() + 3 + halt_at))
          << "dst_home " << dst_home << ", halt after commit " << halt_at;
      EXPECT_EQ(stats.messages, static_cast<std::uint32_t>(3 + halt_at));
      EXPECT_EQ(stats.commits_pending,
                static_cast<std::uint32_t>(2 - halt_at))
          << "dst_home " << dst_home << ", halt after commit " << halt_at;
      EXPECT_TRUE(stats.halted);
    }
  }
}

}  // namespace
}  // namespace ghba

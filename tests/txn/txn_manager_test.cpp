// TxnManager: the server-side 2PC tables. Intent locks must fence exactly
// the paths with in-doubt prepares, closing must be idempotent, and both
// bounded tables (decisions, closed history) must age FIFO without ever
// forgetting an *open* obligation.
#include "txn/txn_manager.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace ghba {
namespace {

TxnPendingOp MakeOp(std::uint64_t txn_id, const std::string& path,
                    TxnSubOp subop = TxnSubOp::kInsert,
                    MdsId coordinator = 0) {
  TxnPendingOp op;
  op.txn_id = txn_id;
  op.subop = subop;
  op.path = path;
  op.coordinator = coordinator;
  op.participants = {coordinator};
  return op;
}

TEST(TxnManagerTest, IntentLockLifecycle) {
  TxnManager m;
  MutexLock lock(&m.mu());
  EXPECT_FALSE(m.IsLockedByOtherLocked("/a", 0));

  m.AddPendingLocked(MakeOp(7, "/a", TxnSubOp::kRemove));
  // Plain mutations (txn_id 0) and other txns are fenced; the owner is not.
  EXPECT_TRUE(m.IsLockedByOtherLocked("/a", 0));
  EXPECT_TRUE(m.IsLockedByOtherLocked("/a", 8));
  EXPECT_FALSE(m.IsLockedByOtherLocked("/a", 7));
  EXPECT_FALSE(m.IsLockedByOtherLocked("/b", 0));

  const TxnPendingOp* found = m.FindPendingLocked(7, "/a");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->subop, TxnSubOp::kRemove);
  EXPECT_EQ(m.FindPendingLocked(7, "/b"), nullptr);
  EXPECT_EQ(m.FindPendingLocked(9, "/a"), nullptr);

  m.ClosePendingLocked(7, "/a", /*committed=*/true);
  EXPECT_FALSE(m.IsLockedByOtherLocked("/a", 0));
  EXPECT_EQ(m.FindPendingLocked(7, "/a"), nullptr);
  const auto outcome = m.ClosedOutcomeLocked(7);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
  EXPECT_FALSE(m.ClosedOutcomeLocked(8).has_value());
}

TEST(TxnManagerTest, CloseOfUnknownOpStillRecordsTheOutcome) {
  TxnManager m;
  MutexLock lock(&m.mu());
  m.ClosePendingLocked(1, "/nope", /*committed=*/false);
  EXPECT_FALSE(m.IsLockedByOtherLocked("/nope", 0));
  // Nothing was pending, but the outcome is still recorded: a duplicate
  // commit/abort retry must be answerable ("txn already closed") even when
  // the first finish raced ahead of the retransmit.
  const auto outcome = m.ClosedOutcomeLocked(1);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(*outcome);
}

TEST(TxnManagerTest, ReprepareReplacesAndKeepsOneLock) {
  TxnManager m;
  MutexLock lock(&m.mu());
  m.AddPendingLocked(MakeOp(5, "/x", TxnSubOp::kInsert));
  auto redo = MakeOp(5, "/x", TxnSubOp::kInsert);
  redo.metadata.inode = 99;
  m.AddPendingLocked(std::move(redo));

  EXPECT_EQ(m.PendingLocked().size(), 1u);
  const TxnPendingOp* found = m.FindPendingLocked(5, "/x");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->metadata.inode, 99u);
  m.ClosePendingLocked(5, "/x", /*committed=*/false);
  EXPECT_FALSE(m.IsLockedByOtherLocked("/x", 0));
}

TEST(TxnManagerTest, CloseReleasesOnlyTheOwnersLock) {
  TxnManager m;
  MutexLock lock(&m.mu());
  m.AddPendingLocked(MakeOp(1, "/p"));
  // A foreign close for the same path must not release txn 1's lock.
  m.ClosePendingLocked(2, "/p", /*committed=*/false);
  EXPECT_TRUE(m.IsLockedByOtherLocked("/p", 0));
  m.ClosePendingLocked(1, "/p", /*committed=*/true);
  EXPECT_FALSE(m.IsLockedByOtherLocked("/p", 0));
}

TEST(TxnManagerTest, CoordinatorDecisionLifecycle) {
  TxnManager m;
  MutexLock lock(&m.mu());
  EXPECT_FALSE(m.QueryLocked(11).has_value());

  m.DecideLocked(11, /*commit=*/true);
  ASSERT_TRUE(m.QueryLocked(11).has_value());
  EXPECT_EQ(*m.QueryLocked(11), TxnCoordState::kCommitted);
  m.DecideLocked(11, /*commit=*/true);  // idempotent repeat
  EXPECT_EQ(*m.QueryLocked(11), TxnCoordState::kCommitted);

  m.DecideLocked(12, /*commit=*/false);
  EXPECT_EQ(*m.QueryLocked(12), TxnCoordState::kAborted);
}

TEST(TxnManagerTest, TxnIsOpenWhileItsCoordinatorPrepareIsPendingAndUndecided) {
  constexpr MdsId kSelf = 3;
  TxnManager m;
  MutexLock lock(&m.mu());
  EXPECT_FALSE(m.IsOpenLocked(11, kSelf));  // unknown

  // A prepare naming another server as coordinator opens nothing here.
  m.AddPendingLocked(MakeOp(11, "/dst", TxnSubOp::kInsert, /*coordinator=*/5));
  EXPECT_FALSE(m.IsOpenLocked(11, kSelf));

  // The coordinator's own prepare opens the txn, for that server only.
  m.AddPendingLocked(MakeOp(11, "/src", TxnSubOp::kRemove, kSelf));
  EXPECT_TRUE(m.IsOpenLocked(11, kSelf));
  EXPECT_FALSE(m.IsOpenLocked(11, 4));
  EXPECT_FALSE(m.IsOpenLocked(12, kSelf));

  // A verdict closes it, whether or not the prepare is still pending.
  m.DecideLocked(11, /*commit=*/true);
  EXPECT_FALSE(m.IsOpenLocked(11, kSelf));

  // Closing the coordinator's prepare undecided closes it too.
  m.AddPendingLocked(MakeOp(13, "/other", TxnSubOp::kInsert, kSelf));
  EXPECT_TRUE(m.IsOpenLocked(13, kSelf));
  m.ClosePendingLocked(13, "/other", /*committed=*/false);
  EXPECT_FALSE(m.IsOpenLocked(13, kSelf));
}

TEST(TxnManagerTest, DecisionTableAgesFifo) {
  TxnManager m;
  MutexLock lock(&m.mu());
  for (std::uint64_t id = 1; id <= kMaxTxnCoordEntries + 8; ++id) {
    m.DecideLocked(id, /*commit=*/true);
  }
  // The oldest rows aged out; the newest are still answerable.
  EXPECT_FALSE(m.QueryLocked(1).has_value());
  EXPECT_TRUE(m.QueryLocked(kMaxTxnCoordEntries + 8).has_value());
}

TEST(TxnManagerTest, ClosedHistoryAgesFifo) {
  TxnManager m;
  MutexLock lock(&m.mu());
  for (std::uint64_t id = 1; id <= kMaxTxnClosedEntries + 8; ++id) {
    m.AddPendingLocked(MakeOp(id, "/f" + std::to_string(id)));
    m.ClosePendingLocked(id, "/f" + std::to_string(id), /*committed=*/true);
  }
  EXPECT_FALSE(m.ClosedOutcomeLocked(1).has_value());
  EXPECT_TRUE(m.ClosedOutcomeLocked(kMaxTxnClosedEntries + 8).has_value());
}

TEST(TxnManagerTest, SeedRestoresLocksDecisionsAndHistory) {
  TxnManager m;
  std::vector<TxnPendingOp> pending{MakeOp(3, "/locked", TxnSubOp::kRemove),
                                    MakeOp(5, "/open", TxnSubOp::kRemove)};
  std::vector<TxnCoordEntry> decisions{{3, TxnCoordState::kCommitted},
                                       {4, TxnCoordState::kAborted}};
  std::vector<std::pair<std::uint64_t, bool>> closed{{2, true}, {1, false}};
  m.Seed(std::move(pending), std::move(decisions), closed);

  MutexLock lock(&m.mu());
  EXPECT_TRUE(m.IsLockedByOtherLocked("/locked", 0));
  ASSERT_NE(m.FindPendingLocked(3, "/locked"), nullptr);
  EXPECT_EQ(*m.QueryLocked(3), TxnCoordState::kCommitted);
  EXPECT_EQ(*m.QueryLocked(4), TxnCoordState::kAborted);
  // A re-seeded coordinator prepare keeps its undecided txn open.
  EXPECT_TRUE(m.IsOpenLocked(5, /*self=*/0));
  EXPECT_FALSE(m.IsOpenLocked(3, /*self=*/0));
  ASSERT_TRUE(m.ClosedOutcomeLocked(2).has_value());
  EXPECT_TRUE(*m.ClosedOutcomeLocked(2));
  ASSERT_TRUE(m.ClosedOutcomeLocked(1).has_value());
  EXPECT_FALSE(*m.ClosedOutcomeLocked(1));
  EXPECT_EQ(m.PendingLocked().size(), 2u);
}

TEST(TxnManagerTest, SeedResetsPriorState) {
  TxnManager m;
  {
    MutexLock lock(&m.mu());
    m.AddPendingLocked(MakeOp(9, "/old"));
    m.DecideLocked(9, /*commit=*/false);
  }
  m.Seed({}, {}, {});
  MutexLock lock(&m.mu());
  EXPECT_FALSE(m.IsLockedByOtherLocked("/old", 0));
  EXPECT_TRUE(m.PendingLocked().empty());
  EXPECT_FALSE(m.QueryLocked(9).has_value());
}

}  // namespace
}  // namespace ghba

// Tests for the lock-rank discipline in sync.hpp.
//
// The file compiles in both configurations: with GHBA_LOCKDEP off it pins
// the zero-overhead contract (Mutex == std::mutex in layout, ordering never
// interferes), with GHBA_LOCKDEP on it additionally pins the validator —
// rank inversions and cross-thread A/B–B/A cycles must abort loudly, with
// both acquisition stacks in the report, instead of deadlocking.
#include "common/sync.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <thread>

#include <gtest/gtest.h>

namespace ghba {
namespace {

#if !defined(GHBA_LOCKDEP) || !GHBA_LOCKDEP
// Zero-overhead contract when the validator is off. (Duplicated from the
// header's static_assert so a regression fails a *test*, not just a build.)
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "lockdep-off Mutex must be layout-identical to std::mutex");
#endif

TEST(SyncTest, WellOrderedNestingWorks) {
  Mutex outer{LockRank::kCluster};
  Mutex inner{LockRank::kLogging};
  MutexLock hold_outer(&outer);
  MutexLock hold_inner(&inner);
  SUCCEED();  // acquire-down chain must be accepted in both configurations
}

TEST(SyncTest, FullRankChainInOrder) {
  // Walking the entire table top-down is the most-nested legal chain.
  Mutex cluster{LockRank::kCluster};
  Mutex wal{LockRank::kServerWal};
  Mutex filter{LockRank::kServerFilter};
  Mutex seg{LockRank::kServerSeg};
  Mutex shard{LockRank::kServerShard};
  Mutex injector{LockRank::kFaultInjector};
  Mutex logging{LockRank::kLogging};
  MutexLock l1(&cluster);
  MutexLock l2(&wal);
  MutexLock l3(&filter);
  MutexLock l4(&seg);
  MutexLock l5(&shard);
  MutexLock l6(&injector);
  MutexLock l7(&logging);
  SUCCEED();
}

TEST(SyncTest, TryLockSucceedsAndReleases) {
  Mutex mu{LockRank::kHealth};
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
  MutexLock relock(&mu);  // releasing via Unlock left lockdep state clean
}

TEST(SyncTest, ConditionVariableAnyWaitRelocks) {
  // condition_variable_any waits go through the BasicLockable face
  // (lock()/unlock()); lockdep must tolerate the unlock/relock cycle while
  // another ranked mutex is NOT held (the usual single-lock wait pattern).
  Mutex mu{LockRank::kServerShard};
  std::condition_variable_any cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.notify_one();
  });
  {
    mu.lock();
    cv.wait(mu, [&] { return ready; });
    mu.unlock();
  }
  waker.join();
}

TEST(SyncTest, SharedMutexReadersShareAndAWriterExcludesThem) {
  SharedMutex gate{LockRank::kDrainGate};
  std::atomic<int> readers_in{0};
  std::atomic<bool> release{false};
  std::atomic<bool> writer_in{false};
  const auto reader = [&] {
    ReaderMutexLock hold(&gate);
    ++readers_in;
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::thread r1(reader);
  std::thread r2(reader);
  // Both readers get in at once.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (readers_in.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(readers_in.load(), 2);
  std::thread writer([&] {
    WriterMutexLock hold(&gate);
    writer_in.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(writer_in.load());  // the readers still hold it
  release.store(true);
  r1.join();
  r2.join();
  writer.join();
  EXPECT_TRUE(writer_in.load());
}

TEST(SyncTest, LockRankNamesCoverTheTable) {
  EXPECT_STREQ(LockRankName(LockRank::kLogging), "logging");
  EXPECT_STREQ(LockRankName(LockRank::kCluster), "cluster");
  EXPECT_STREQ(LockRankName(LockRank::kDrainGate), "drain-gate");
  EXPECT_STREQ(LockRankName(LockRank::kRouterPool), "router-pool");
  EXPECT_STREQ(LockRankName(LockRank::kRouterSnapshot), "router-snapshot");
  EXPECT_STREQ(LockRankName(LockRank::kClient), "client");
  EXPECT_STREQ(LockRankName(LockRank::kServerWal), "server-wal");
  EXPECT_EQ(static_cast<std::size_t>(LockRank::kClient) + 1, kLockRankCount);
}

#if defined(GHBA_LOCKDEP) && GHBA_LOCKDEP

using SyncLockdepDeathTest = ::testing::Test;

TEST(SyncLockdepTest, HeldCountTracksTheStack) {
  EXPECT_EQ(lockdep::HeldCount(), 0u);
  Mutex outer{LockRank::kServerWal};
  Mutex inner{LockRank::kServerSeg};
  {
    MutexLock l1(&outer);
    EXPECT_EQ(lockdep::HeldCount(), 1u);
    MutexLock l2(&inner);
    EXPECT_EQ(lockdep::HeldCount(), 2u);
  }
  EXPECT_EQ(lockdep::HeldCount(), 0u);
}

TEST(SyncLockdepDeathTest, RankInversionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex low{LockRank::kLogging};
        Mutex high{LockRank::kCluster};
        MutexLock l1(&low);
        MutexLock l2(&high);  // rank 17 while holding rank 0: refused
      },
      "lock rank inversion");
}

TEST(SyncLockdepDeathTest, SharedAcquisitionIsRankedToo) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // A lookup holding a pooled-connection lock may not take the drain
        // gate, even shared: the writer side nests the other way.
        Mutex pool{LockRank::kRouterPool};
        SharedMutex gate{LockRank::kDrainGate};
        MutexLock l1(&pool);
        ReaderMutexLock l2(&gate);
      },
      "drain-gate");
}

TEST(SyncLockdepDeathTest, SameRankReacquisitionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // Two distinct mutexes at the SAME rank may not nest either — the
        // order between them would be unranked, which is the hole deadlocks
        // crawl through (two shards locked in opposite orders).
        Mutex a{LockRank::kServerShard};
        Mutex b{LockRank::kServerShard};
        MutexLock l1(&a);
        MutexLock l2(&b);
      },
      "lock rank inversion");
}

TEST(SyncLockdepDeathTest, TryLockInversionAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex low{LockRank::kHealth};
        Mutex high{LockRank::kServerWal};
        MutexLock l1(&low);
        (void)high.TryLock();  // try-lock is validated exactly like Lock
      },
      "lock rank inversion");
}

TEST(SyncLockdepDeathTest, CrossThreadAbBaCycleAbortsInsteadOfDeadlocking) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        // Thread 1 takes A then B in rank order (legal, and records the
        // A->B edge with its stacks). Thread 2 then attempts B->A: with a
        // total rank order the second thread necessarily acquires upward,
        // so lockdep aborts BEFORE blocking — the classic A/B–B/A deadlock
        // cannot even form. The report must cite the opposite order
        // recorded from thread 1.
        Mutex a{LockRank::kServerFilter};
        Mutex b{LockRank::kServerOut};
        std::atomic<bool> first_done{false};
        std::thread t1([&] {
          MutexLock la(&a);
          MutexLock lb(&b);
          first_done.store(true);
        });
        t1.join();
        std::thread t2([&] {
          MutexLock lb(&b);
          MutexLock la(&a);  // aborts here
        });
        t2.join();
      },
      "opposite order");
}

TEST(SyncLockdepDeathTest, ReportNamesBothRanks) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex metrics{LockRank::kMetricsStripe};
        Mutex registry{LockRank::kMetricsRegistry};
        MutexLock l1(&metrics);
        MutexLock l2(&registry);
      },
      "metrics-registry");
}

#endif  // GHBA_LOCKDEP

}  // namespace
}  // namespace ghba

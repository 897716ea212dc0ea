#include "sim/fifo_server.hpp"

#include <gtest/gtest.h>

namespace ghba {
namespace {

TEST(FifoServerTest, IdleServerServesImmediately) {
  FifoServer s;
  const auto c = s.Serve(10.0, 2.0);
  EXPECT_DOUBLE_EQ(c.start, 10.0);
  EXPECT_DOUBLE_EQ(c.finish, 12.0);
  EXPECT_DOUBLE_EQ(c.wait, 0.0);
}

TEST(FifoServerTest, BusyServerQueues) {
  FifoServer s;
  s.Serve(0.0, 5.0);  // busy until 5
  const auto c = s.Serve(1.0, 2.0);
  EXPECT_DOUBLE_EQ(c.start, 5.0);
  EXPECT_DOUBLE_EQ(c.finish, 7.0);
  EXPECT_DOUBLE_EQ(c.wait, 4.0);
}

TEST(FifoServerTest, LindleyRecursionOverBurst) {
  FifoServer s;
  // Arrivals every 1.0, service 1.5 -> waits grow by 0.5 each.
  double expected_wait = 0;
  for (int i = 0; i < 10; ++i) {
    const auto c = s.Serve(i * 1.0, 1.5);
    EXPECT_NEAR(c.wait, expected_wait, 1e-12);
    expected_wait += 0.5;
  }
}

TEST(FifoServerTest, GapDrainsQueue) {
  FifoServer s;
  s.Serve(0.0, 1.0);
  const auto c = s.Serve(100.0, 1.0);
  EXPECT_DOUBLE_EQ(c.wait, 0.0);
  EXPECT_DOUBLE_EQ(c.start, 100.0);
  // Busy time counts service only, not the idle gap between the two.
  EXPECT_DOUBLE_EQ(s.total_busy_time(), 2.0);
}

TEST(FifoServerTest, ResetClears) {
  FifoServer s;
  s.Serve(0.0, 5.0);
  s.Reset();
  EXPECT_EQ(s.served(), 0u);
  EXPECT_DOUBLE_EQ(s.busy_until(), 0.0);
  const auto c = s.Serve(0.0, 1.0);
  EXPECT_DOUBLE_EQ(c.wait, 0.0);
}

}  // namespace
}  // namespace ghba

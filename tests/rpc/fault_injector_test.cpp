#include "rpc/fault_injector.hpp"

#include <gtest/gtest.h>

namespace ghba {
namespace {

TEST(FaultInjectorTest, DefaultsDeliverEverything) {
  FaultInjector injector;
  for (int i = 0; i < 100; ++i) {
    const auto plan = injector.PlanFrame();
    EXPECT_EQ(plan.action, FaultInjector::FrameAction::kDeliver);
    EXPECT_EQ(plan.delay.count(), 0);
    EXPECT_FALSE(injector.RefuseConnect());
  }
  const auto c = injector.counters();
  EXPECT_EQ(c.frames, 100u);
  EXPECT_EQ(c.drops + c.delays + c.truncations + c.corruptions +
                c.refused_connects,
            0u);
}

TEST(FaultInjectorTest, SameSeedReplaysSameSchedule) {
  FaultInjector::Options opts;
  opts.drop_prob = 0.1;
  opts.delay_prob = 0.2;
  opts.truncate_prob = 0.1;
  opts.corrupt_prob = 0.1;
  opts.delay_ms_max = 7;
  opts.seed = 1234;
  FaultInjector a(opts);
  FaultInjector b(opts);
  for (int i = 0; i < 500; ++i) {
    const auto pa = a.PlanFrame();
    const auto pb = b.PlanFrame();
    ASSERT_EQ(pa.action, pb.action) << "frame " << i;
    ASSERT_EQ(pa.delay.count(), pb.delay.count()) << "frame " << i;
    ASSERT_EQ(pa.mutation_seed, pb.mutation_seed) << "frame " << i;
  }
}

TEST(FaultInjectorTest, SetOptionsResetsTheDecisionStream) {
  FaultInjector::Options opts;
  opts.drop_prob = 0.3;
  opts.seed = 77;
  FaultInjector injector(opts);
  std::vector<FaultInjector::FrameAction> first;
  for (int i = 0; i < 50; ++i) first.push_back(injector.PlanFrame().action);
  injector.set_options(opts);  // same seed: the schedule starts over
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(injector.PlanFrame().action, first[i]) << i;
  }
}

TEST(FaultInjectorTest, ArmedFrameFaultHitsOnlyItsPortAndTypeOnce) {
  FaultInjector::Options opts;
  opts.drop_prob = 0.5;
  opts.seed = 3;
  FaultInjector reference(opts);
  FaultInjector injector(opts);
  injector.ArmFrameFault(7000, 9, FaultInjector::FrameAction::kCorrupt);
  EXPECT_TRUE(injector.HasArmedFrameFaults());
  // Other ports and types draw from the seeded stream as if nothing were
  // armed; the armed frame itself draws nothing from it.
  EXPECT_EQ(injector.PlanFrame(7001, 9).action, reference.PlanFrame().action);
  EXPECT_EQ(injector.PlanFrame(7000, 8).action, reference.PlanFrame().action);
  EXPECT_EQ(injector.PlanFrame(7000, 9).action,
            FaultInjector::FrameAction::kCorrupt);
  EXPECT_FALSE(injector.HasArmedFrameFaults());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(injector.PlanFrame(7000, 9).action,
              reference.PlanFrame().action)
        << i;
  }
  EXPECT_EQ(injector.counters().corruptions, 1u);
}

TEST(FaultInjectorTest, RatesRoughlyHonoured) {
  FaultInjector::Options opts;
  opts.drop_prob = 0.2;
  opts.delay_prob = 0.3;
  opts.refuse_connect_prob = 0.25;
  opts.seed = 9;
  FaultInjector injector(opts);
  for (int i = 0; i < 2000; ++i) {
    (void)injector.PlanFrame();
    (void)injector.RefuseConnect();
  }
  const auto c = injector.counters();
  EXPECT_EQ(c.frames, 2000u);
  // Loose 3-sigma-ish bounds: this is a sanity check, not a chi-square test.
  EXPECT_GT(c.drops, 300u);
  EXPECT_LT(c.drops, 500u);
  EXPECT_GT(c.delays, 450u);
  EXPECT_LT(c.delays, 750u);
  EXPECT_GT(c.refused_connects, 380u);
  EXPECT_LT(c.refused_connects, 620u);
}

TEST(FaultInjectorTest, StallBookkeeping) {
  FaultInjector injector;
  EXPECT_FALSE(injector.IsStalled(3));
  injector.StallServer(3);
  EXPECT_TRUE(injector.IsStalled(3));
  EXPECT_FALSE(injector.IsStalled(4));
  injector.UnstallServer(3);
  EXPECT_FALSE(injector.IsStalled(3));
  injector.UnstallServer(3);  // idempotent
}

TEST(MutatePayloadTest, TruncationKeepsProperNonEmptyPrefix) {
  FaultInjector::FramePlan plan;
  plan.action = FaultInjector::FrameAction::kTruncate;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    plan.mutation_seed = seed;
    std::vector<std::uint8_t> payload(64);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i);
    }
    const auto original = payload;
    MutatePayload(plan, payload);
    ASSERT_FALSE(payload.empty());
    ASSERT_LT(payload.size(), original.size());
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), original.begin()));
  }
}

TEST(MutatePayloadTest, CorruptionKeepsLengthAndChangesBytes) {
  FaultInjector::FramePlan plan;
  plan.action = FaultInjector::FrameAction::kCorrupt;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    plan.mutation_seed = seed;
    std::vector<std::uint8_t> payload(64, 0xab);
    MutatePayload(plan, payload);
    ASSERT_EQ(payload.size(), 64u);
    EXPECT_NE(payload, std::vector<std::uint8_t>(64, 0xab)) << seed;
  }
}

TEST(MutatePayloadTest, DeliverAndDropLeavePayloadAlone) {
  for (const auto action : {FaultInjector::FrameAction::kDeliver,
                            FaultInjector::FrameAction::kDrop}) {
    FaultInjector::FramePlan plan;
    plan.action = action;
    plan.mutation_seed = 42;
    std::vector<std::uint8_t> payload{1, 2, 3};
    MutatePayload(plan, payload);
    EXPECT_EQ(payload, (std::vector<std::uint8_t>{1, 2, 3}));
  }
}

}  // namespace
}  // namespace ghba

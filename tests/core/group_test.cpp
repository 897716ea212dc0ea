// Group data and the planner's load queries (LoadOf, LightestMember,
// ReplicasHeldBy) on plans built by GroupPlan itself.
#include "core/group.hpp"

#include <gtest/gtest.h>

#include "bloom/id_bloom_array.hpp"
#include "common/rng.hpp"
#include "core/group_plan.hpp"

namespace ghba {
namespace {

GroupPlan Initial(std::vector<MdsId> servers, std::uint32_t m) {
  return GroupPlan::PlanInitial(servers, m, 0, ReplicaPlacement::kLeastLoaded)
      .plan;
}

TEST(GroupTest, MembershipQueries) {
  Group g;
  g.members = {1, 4, 9};
  EXPECT_TRUE(g.HasMember(4));
  EXPECT_FALSE(g.HasMember(2));
  EXPECT_EQ(g.size(), 3u);
}

TEST(GroupTest, LoadCountsReplicasPerHolder) {
  // {0,1} {2,3} {4}: group {0,1} covers 2, 3 and 4 on its lightest member
  // each time, so 0 receives 2 and 4 and 1 receives 3.
  const GroupPlan plan = Initial({0, 1, 2, 3, 4}, 2);
  ASSERT_EQ(plan.NumGroups(), 3u);
  EXPECT_EQ(plan.LoadOf(0), 2u);
  EXPECT_EQ(plan.LoadOf(1), 1u);
  EXPECT_EQ(plan.LoadOf(4), 4u);  // a group of one holds every outsider
  EXPECT_EQ(plan.LoadOf(99), 0u);
}

TEST(GroupTest, LightestMemberPrefersLowLoadThenLowId) {
  // {0,1} {2,3}: each member holds one replica, a tie the lowest id wins.
  const GroupPlan tied = Initial({0, 1, 2, 3}, 2);
  EXPECT_EQ(tied.LightestMember(tied.GroupOf(1)), 0u);
  EXPECT_EQ(tied.LightestMember(tied.GroupOf(2)), 2u);
  // {0,1} {2,3} {4}: 0 holds two replicas, 1 holds one.
  const GroupPlan uneven = Initial({0, 1, 2, 3, 4}, 2);
  EXPECT_EQ(uneven.LightestMember(uneven.GroupOf(0)), 1u);

  // Joins leave members listed out of id order (a recycled low id enters
  // behind higher ones); the tie still goes to the lowest id.
  Rng rng(5);
  GroupPlan plan = Initial({1, 2, 3, 4, 5, 6}, 3);
  plan = plan.PlanJoin(0, rng).plan;
  for (const auto& [gid, g] : plan.groups()) {
    MdsId want = g.members.front();
    for (const MdsId m : g.members) {
      if (plan.LoadOf(m) < plan.LoadOf(want) ||
          (plan.LoadOf(m) == plan.LoadOf(want) && m < want)) {
        want = m;
      }
    }
    EXPECT_EQ(plan.LightestMember(g), want) << "group " << gid;
  }
}

TEST(GroupTest, ReplicasHeldBySorted) {
  const GroupPlan plan = Initial({0, 1, 2, 3, 4}, 2);
  EXPECT_EQ(plan.ReplicasHeldBy(0), (std::vector<MdsId>{2, 4}));
  EXPECT_EQ(plan.ReplicasHeldBy(1), (std::vector<MdsId>{3}));
  EXPECT_EQ(plan.ReplicasHeldBy(4), (std::vector<MdsId>{0, 1, 2, 3}));
  EXPECT_TRUE(plan.ReplicasHeldBy(7).empty());
}

TEST(GroupTest, IdbfaTracksMembership) {
  IdBloomArray idbfa;
  idbfa.AddMember(5);
  idbfa.AddMember(6);
  ASSERT_TRUE(idbfa.AddReplica(5, 42).ok());
  const auto loc = idbfa.Locate(42);
  ASSERT_EQ(loc.kind, ArrayQueryResult::Kind::kUniqueHit);
  EXPECT_EQ(loc.owner, 5u);
}

}  // namespace
}  // namespace ghba

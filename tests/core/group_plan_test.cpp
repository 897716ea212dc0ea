// GroupPlan properties over seeded random join/leave/fail/split sequences:
// after every step the structural checks pass, the diff turns the previous
// per-server replica sets into exactly the new ones, the same seed replays
// the same plans, and with M = 1 (HBA) every server holds every other
// server's replica.
#include "core/group_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace ghba {
namespace {

using HeldSets = std::map<MdsId, std::set<MdsId>>;

/// Server -> owners of the replicas the plan assigns it.
HeldSets HeldBy(const GroupPlan& plan) {
  HeldSets held;
  for (const auto& [gid, g] : plan.groups()) {
    for (const auto& [owner, holder] : g.replica_holder) {
      held[holder].insert(owner);
    }
  }
  return held;
}

/// Apply `diff` to per-server replica sets; every op's precondition must
/// hold (install only what is absent, move and drop only what is present).
::testing::AssertionResult ApplyDiff(const ReplicaDiff& diff, HeldSets& held) {
  for (const ReplicaOp& op : diff.ops) {
    switch (op.kind) {
      case ReplicaOp::Kind::kInstall:
        if (!held[op.to].insert(op.owner).second) {
          return ::testing::AssertionFailure()
                 << "install of " << op.owner << " on " << op.to
                 << " that already holds it";
        }
        break;
      case ReplicaOp::Kind::kMove:
        if (held[op.from].erase(op.owner) == 0 ||
            !held[op.to].insert(op.owner).second) {
          return ::testing::AssertionFailure()
                 << "move of " << op.owner << " " << op.from << "->" << op.to;
        }
        break;
      case ReplicaOp::Kind::kDrop:
        if (held[op.from].erase(op.owner) == 0) {
          return ::testing::AssertionFailure()
                 << "drop of " << op.owner << " absent on " << op.from;
        }
        break;
    }
  }
  for (auto it = held.begin(); it != held.end();) {
    it = it->second.empty() ? held.erase(it) : std::next(it);
  }
  return ::testing::AssertionSuccess();
}

std::string Describe(const GroupPlan& plan) {
  std::ostringstream out;
  for (const auto& [gid, g] : plan.groups()) {
    out << gid << ":";
    for (const MdsId m : g.members) out << m << ",";
    out << "|";
    for (const auto& [owner, holder] : g.replica_holder) {
      out << owner << ">" << holder << ",";
    }
    out << ";";
  }
  return out.str();
}

struct Shape {
  std::uint32_t n;
  std::uint32_t m;
  ReplicaPlacement placement;
};

/// Runs `steps` seeded random membership events and returns the plans'
/// descriptions, checking the per-step properties along the way.
std::vector<std::string> RunSequence(const Shape& shape, std::uint64_t seed,
                                     int steps) {
  Rng rng(seed);
  std::vector<MdsId> servers;
  for (MdsId id = 0; id < shape.n; ++id) servers.push_back(id);
  PlanStep step =
      GroupPlan::PlanInitial(servers, shape.m, 0, shape.placement);
  HeldSets held;
  EXPECT_TRUE(ApplyDiff(step.diff, held));
  GroupPlan plan = std::move(step.plan);
  std::vector<std::string> trace{Describe(plan)};
  MdsId next_id = shape.n;

  for (int i = 0; i < steps; ++i) {
    const std::vector<MdsId> alive = plan.Servers();
    const auto dice = rng.NextBounded(100);
    std::string what;
    if (dice < 40 || alive.size() < 2) {
      // Join, recycling the lowest freed id half of the time.
      MdsId nid = next_id;
      if (rng.NextBounded(2) == 0) {
        for (MdsId id = 0; id < next_id; ++id) {
          if (!plan.Contains(id)) {
            nid = id;
            break;
          }
        }
      }
      if (nid == next_id) ++next_id;
      step = plan.PlanJoin(nid, rng);
      what = "join " + std::to_string(nid);
    } else if (dice < 65) {
      const MdsId victim = alive[rng.NextBounded(alive.size())];
      step = plan.PlanLeave(victim);
      what = "leave " + std::to_string(victim);
      EXPECT_EQ(step.diff.departed, victim);
      EXPECT_FALSE(step.diff.drain_targets.empty()) << what;
      for (const MdsId t : step.diff.drain_targets) {
        EXPECT_TRUE(step.plan.Contains(t)) << what;
      }
    } else if (dice < 85) {
      const MdsId victim = alive[rng.NextBounded(alive.size())];
      step = plan.PlanFail(victim);
      what = "fail " + std::to_string(victim);
      EXPECT_EQ(step.diff.departed, victim);
    } else {
      const GroupId victim = plan.LargestGroup();
      auto split = plan.PlanSplit(victim);
      if (!split.ok()) {
        EXPECT_LT(plan.groups().at(victim).size(), 2u);
        continue;
      }
      step = std::move(*split);
      what = "split " + std::to_string(victim);
      EXPECT_TRUE(step.diff.split);
    }

    const Status check = step.plan.Check();
    EXPECT_TRUE(check.ok()) << what << ": " << check.ToString();
    EXPECT_TRUE(ApplyDiff(step.diff, held)) << what;
    EXPECT_EQ(held, HeldBy(step.plan)) << what;
    if (shape.m == 1) {
      EXPECT_EQ(step.plan.NumGroups(), step.plan.Servers().size()) << what;
      const std::size_t n = step.plan.Servers().size();
      for (const MdsId s : step.plan.Servers()) {
        EXPECT_EQ(step.plan.LoadOf(s), n - 1) << what << " server " << s;
      }
    }
    plan = std::move(step.plan);
    trace.push_back(what + " " + Describe(plan));
  }
  return trace;
}

class GroupPlanPropertyTest
    : public ::testing::TestWithParam<std::tuple<Shape, std::uint64_t>> {};

TEST_P(GroupPlanPropertyTest, RandomSequencesKeepEveryProperty) {
  const auto& [shape, seed] = GetParam();
  const auto first = RunSequence(shape, seed, 60);
  EXPECT_EQ(first, RunSequence(shape, seed, 60)) << "same seed, same plans";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GroupPlanPropertyTest,
    ::testing::Combine(
        ::testing::Values(Shape{6, 3, ReplicaPlacement::kLeastLoaded},
                          Shape{12, 4, ReplicaPlacement::kLeastLoaded},
                          Shape{9, 2, ReplicaPlacement::kLeastLoaded},
                          Shape{5, 1, ReplicaPlacement::kLeastLoaded},
                          Shape{4, 8, ReplicaPlacement::kLeastLoaded},
                          Shape{10, 3, ReplicaPlacement::kModularHash}),
        ::testing::Values(1u, 2u, 3u)));

TEST(GroupPlanTest, InitialGroupsAreBalanced) {
  std::vector<MdsId> servers;
  for (MdsId id = 0; id < 60; ++id) servers.push_back(id);
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 7, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  ASSERT_EQ(plan.NumGroups(), 9u);
  for (const auto& [gid, g] : plan.groups()) {
    EXPECT_GE(g.size(), 6u);
    EXPECT_LE(g.size(), 7u);
  }
}

TEST(GroupPlanTest, JoinShedsToTheFloorOfTheNewAverage) {
  // {0,1,2} {3,4,5} {6,7}: the newcomer enters {6,7}, whose members hold
  // 3 replicas each; 6 outsiders over 3 members is 2 each, so each member
  // hands one replica over and the newcomer's own replica goes to one
  // member of each other group.
  std::vector<MdsId> servers{0, 1, 2, 3, 4, 5, 6, 7};
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 3, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  Rng rng(1);
  const PlanStep step = plan.PlanJoin(8, rng);
  EXPECT_FALSE(step.diff.split);
  EXPECT_EQ(step.plan.GroupOf(8).members, (std::vector<MdsId>{6, 7, 8}));
  EXPECT_EQ(step.plan.LoadOf(8), 2u);
  int moves = 0;
  int installs = 0;
  for (const ReplicaOp& op : step.diff.ops) {
    moves += op.kind == ReplicaOp::Kind::kMove;
    installs += op.kind == ReplicaOp::Kind::kInstall;
  }
  EXPECT_EQ(moves, 2);
  EXPECT_EQ(installs, 2);
  EXPECT_EQ(step.diff.idbfa_multicasts, 2u);
}

TEST(GroupPlanTest, FullGroupsSplitBeforeTheJoin) {
  std::vector<MdsId> servers{0, 1, 2, 3, 4, 5};
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 3, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  Rng rng(3);
  const PlanStep step = plan.PlanJoin(6, rng);
  EXPECT_TRUE(step.diff.split);
  EXPECT_EQ(step.plan.NumGroups(), 3u);
  EXPECT_TRUE(step.plan.Check().ok()) << step.plan.Check().ToString();
}

TEST(GroupPlanTest, JoinAtMOneOpensAGroupOfItsOwn) {
  std::vector<MdsId> servers{0, 1, 2, 3};
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 1, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  ASSERT_EQ(plan.NumGroups(), 4u);
  Rng rng(1);
  const PlanStep step = plan.PlanJoin(4, rng);
  EXPECT_FALSE(step.diff.split);
  EXPECT_EQ(step.plan.NumGroups(), 5u);
  EXPECT_EQ(step.plan.LoadOf(4), 4u);
  for (const MdsId s : servers) EXPECT_EQ(step.plan.LoadOf(s), 4u);
  EXPECT_TRUE(step.plan.Check().ok()) << step.plan.Check().ToString();
}

TEST(GroupPlanTest, DepartureMergesGroupsThatFitWithinM) {
  std::vector<MdsId> servers{0, 1, 2, 3};
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 3, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  ASSERT_EQ(plan.NumGroups(), 2u);  // {0,1} {2,3}
  for (const PlanStep& step : {plan.PlanLeave(0), plan.PlanFail(0)}) {
    EXPECT_TRUE(step.diff.merged);
    EXPECT_EQ(step.plan.NumGroups(), 1u);
    EXPECT_EQ(step.plan.GroupOf(1).members, (std::vector<MdsId>{1, 2, 3}));
    EXPECT_EQ(step.plan.LoadOf(1), 0u);
    EXPECT_TRUE(step.plan.Check().ok()) << step.plan.Check().ToString();
  }
  // The leaver's files drain to its group, fixed before the merge.
  EXPECT_EQ(plan.PlanLeave(0).diff.drain_targets, (std::vector<MdsId>{1}));
}

TEST(GroupPlanTest, PlanMoveIsOneMoveOp) {
  std::vector<MdsId> servers{0, 1, 2, 3, 4, 5};
  const GroupPlan plan =
      GroupPlan::PlanInitial(servers, 3, 0, ReplicaPlacement::kLeastLoaded)
          .plan;
  const MdsId from = plan.GroupOf(0).replica_holder.at(3);
  const MdsId to = from == 0 ? 1 : 0;
  const PlanStep step = plan.PlanMove(3, to);

  ASSERT_EQ(step.diff.ops.size(), 1u);
  const ReplicaOp& op = step.diff.ops.front();
  EXPECT_EQ(op.kind, ReplicaOp::Kind::kMove);
  EXPECT_EQ(op.owner, 3u);
  EXPECT_EQ(op.from, from);
  EXPECT_EQ(op.to, to);
  EXPECT_EQ(step.diff.departed, kInvalidMds);
  EXPECT_TRUE(step.plan.Check().ok()) << step.plan.Check().ToString();
  EXPECT_EQ(step.plan.GroupOf(0).replica_holder.at(3), to);
  EXPECT_EQ(step.plan.LoadOf(to), plan.LoadOf(to) + 1);
  EXPECT_EQ(step.plan.LoadOf(from), plan.LoadOf(from) - 1);
  // The source plan is untouched.
  EXPECT_EQ(plan.GroupOf(0).replica_holder.at(3), from);
  EXPECT_TRUE(plan.Check().ok());
}

}  // namespace
}  // namespace ghba

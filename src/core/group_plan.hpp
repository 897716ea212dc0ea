// The group planner: G-HBA's reconfiguration algebra (Sections 3.1-3.2) as
// one pure value type, shared by the simulator and the prototype.
//
// A GroupPlan holds the groups, each with its members and its owner ->
// holder map. Each membership event is a const Plan* call returning the
// next plan and a ReplicaDiff: the ordered installs, intra-group moves and
// drops that turn the current placement into the next one. The planner
// touches no segment array, socket or cost model; GhbaCluster applies a
// diff to its segment arrays and cost model, PrototypeCluster executes it
// as batched frames. HBA is the M = 1 case: every server is a group of one
// and holds every other server's replica. The rules are in DESIGN.md,
// "Reconfiguration: one planner, two executors".
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/group.hpp"

namespace ghba {

/// How replicas are assigned to members inside a group. kLeastLoaded is
/// G-HBA's IDBFA-backed policy; kModularHash reproduces the "hash-based
/// placement" strawman of Section 2.4 (Fig. 11's comparison), which must
/// re-place replicas whenever the member count changes.
enum class ReplicaPlacement { kLeastLoaded, kModularHash };

/// One replica movement: an install on `to`, a move from `from` to `to`
/// within a group, or a drop on `from`.
struct ReplicaOp {
  enum class Kind : std::uint8_t { kInstall, kMove, kDrop };
  Kind kind = Kind::kInstall;
  MdsId owner = kInvalidMds;
  MdsId from = kInvalidMds;
  MdsId to = kInvalidMds;
  /// A replica crossed the network into a group (Fig. 11's count): moves
  /// and coverage installs, not the announcement of a newcomer or drops.
  bool migration = false;
};

/// What a Plan* call changes, in execution order.
struct ReplicaDiff {
  std::vector<ReplicaOp> ops;
  /// Leave and fail: the departed server, which every survivor purges.
  MdsId departed = kInvalidMds;
  /// Leave: the servers that receive the leaver's files.
  std::vector<MdsId> drain_targets;
  /// Messages that multicast updated IDBFAs to group members.
  std::uint64_t idbfa_multicasts = 0;
  bool split = false;
  bool merged = false;
};

struct PlanStep;

class GroupPlan {
 public:
  GroupPlan() = default;

  /// Balanced groups of at most `initial_group_size` (0 = M) members over
  /// `servers`, each covering every outsider.
  static PlanStep PlanInitial(const std::vector<MdsId>& servers,
                              std::uint32_t max_group_size,
                              std::uint32_t initial_group_size,
                              ReplicaPlacement placement);

  /// `newcomer` (in no group) joins. Draws from `rng` only to pick a split
  /// victim.
  PlanStep PlanJoin(MdsId newcomer, Rng& rng) const;
  /// Graceful departure of member `id`; names the drain targets.
  PlanStep PlanLeave(MdsId id) const;
  /// Crash of member `id`: what it held is re-installed from the owners.
  PlanStep PlanFail(MdsId id) const;
  /// Split group `victim` in two; InvalidArgument below two members.
  Result<PlanStep> PlanSplit(GroupId victim) const;

  /// Move `to`'s group's replica of `owner` onto member `to`: one kMove
  /// op. Requires that group to hold it on another member.
  PlanStep PlanMove(MdsId owner, MdsId to) const;

  /// Structural invariants: the groups partition the servers, no group
  /// exceeds M, every group holds exactly one replica of every outsider on
  /// one of its members and none of a co-member.
  Status Check() const;

  // --- queries ---
  const std::map<GroupId, Group>& groups() const { return groups_; }
  std::size_t NumGroups() const { return groups_.size(); }
  bool Contains(MdsId id) const { return group_of_.contains(id); }
  /// Group of member `id`, which must be in the plan.
  const Group& GroupOf(MdsId id) const {
    return groups_.at(group_of_.at(id));
  }
  /// Every server in the plan, ascending.
  std::vector<MdsId> Servers() const;
  /// Replicas `member` holds.
  std::size_t LoadOf(MdsId member) const;
  /// Owners of the replicas `member` holds, ascending.
  std::vector<MdsId> ReplicasHeldBy(MdsId member) const;
  /// Member of `g` holding the fewest replicas (lowest id on a tie).
  MdsId LightestMember(const Group& g) const;
  /// The group with the most members (the first on a tie).
  GroupId LargestGroup() const;

 private:
  /// Holder -> owners in the order the holder received them (the order of
  /// its segment array, whose tail a join sheds first).
  using HeldOrder = std::unordered_map<MdsId, std::vector<MdsId>>;

  GroupId NewGroup();
  MdsId PlacementTarget(const Group& g, MdsId owner) const;

  void Install(Group& g, MdsId owner, MdsId holder, bool migration,
               ReplicaDiff& diff);
  void Move(Group& g, MdsId owner, MdsId to, ReplicaDiff& diff);
  void Drop(Group& g, MdsId owner, ReplicaDiff& diff);

  /// Make `g` hold exactly one replica of every server in `alive` outside
  /// it, on its placement target.
  void EnsureCoverage(Group& g, const std::vector<MdsId>& alive,
                      ReplicaDiff& diff);
  void Split(GroupId victim, const std::vector<MdsId>& alive,
             ReplicaDiff& diff);
  void Merge(GroupId dst, GroupId src, const std::vector<MdsId>& alive,
             ReplicaDiff& diff);
  void MergeWhilePossible(const std::vector<MdsId>& alive, ReplicaDiff& diff);
  /// Take `id` out of its group's member list (and the group out of the
  /// plan when it empties); returns whether the group survives.
  bool RemoveMember(MdsId id, ReplicaDiff& diff);

  std::uint32_t max_group_size_ = 1;
  ReplicaPlacement placement_ = ReplicaPlacement::kLeastLoaded;
  std::map<GroupId, Group> groups_;
  std::unordered_map<MdsId, GroupId> group_of_;
  HeldOrder held_;
  GroupId next_group_id_ = 0;
};

/// A planned transition: the plan after the event and the diff that gets
/// there from the plan before it.
struct PlanStep {
  GroupPlan plan;
  ReplicaDiff diff;
};

}  // namespace ghba

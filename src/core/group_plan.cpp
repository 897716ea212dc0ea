#include "core/group_plan.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

namespace ghba {

namespace {

bool InSorted(const std::vector<MdsId>& sorted, MdsId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

void EraseOwner(std::vector<MdsId>& owners, MdsId owner) {
  const auto it = std::find(owners.begin(), owners.end(), owner);
  assert(it != owners.end());
  owners.erase(it);
}

}  // namespace

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::vector<MdsId> GroupPlan::Servers() const {
  std::vector<MdsId> out;
  out.reserve(group_of_.size());
  for (const auto& [id, gid] : group_of_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t GroupPlan::LoadOf(MdsId member) const {
  const auto it = held_.find(member);
  return it == held_.end() ? 0 : it->second.size();
}

std::vector<MdsId> GroupPlan::ReplicasHeldBy(MdsId member) const {
  const auto it = held_.find(member);
  if (it == held_.end()) return {};
  std::vector<MdsId> owners = it->second;
  std::sort(owners.begin(), owners.end());
  return owners;
}

MdsId GroupPlan::LightestMember(const Group& g) const {
  return *std::min_element(
      g.members.begin(), g.members.end(), [this](MdsId a, MdsId b) {
        return std::pair(LoadOf(a), a) < std::pair(LoadOf(b), b);
      });
}

GroupId GroupPlan::LargestGroup() const {
  return std::max_element(groups_.begin(), groups_.end(),
                          [](const auto& a, const auto& b) {
                            return a.second.size() < b.second.size();
                          })
      ->first;
}

Status GroupPlan::Check() const {
  std::size_t members = 0;
  std::size_t replicas = 0;
  for (const auto& [gid, g] : groups_) {
    if (g.members.empty()) return Status::Internal("empty group");
    if (g.size() > max_group_size_) return Status::Internal("group exceeds M");
    for (const MdsId m : g.members) {
      const auto it = group_of_.find(m);
      if (it == group_of_.end() || it->second != gid) {
        return Status::Internal("group_of points to a group without the MDS");
      }
    }
    members += g.size();
    replicas += g.replica_holder.size();
  }
  if (members != group_of_.size()) {
    return Status::Internal("group membership does not partition the MDSs");
  }
  // Each group mirrors the entire system: exactly one replica per outsider,
  // held by a member, and none of a co-member or of a departed server.
  for (const auto& [gid, g] : groups_) {
    std::size_t outsiders = 0;
    for (const auto& [owner, holder] : g.replica_holder) {
      if (!Contains(owner)) return Status::Internal("replica of a dead MDS");
      if (g.HasMember(owner)) {
        return Status::Internal("replica of a co-member present");
      }
      if (!g.HasMember(holder)) {
        return Status::Internal("replica holder is not a group member");
      }
      ++outsiders;
    }
    if (outsiders != group_of_.size() - g.size()) {
      return Status::Internal("missing replica coverage for an outsider");
    }
  }
  // The arrival order lists exactly the holder maps' entries.
  std::size_t held = 0;
  for (const auto& [holder, owners] : held_) {
    held += owners.size();
    for (const MdsId owner : owners) {
      const auto* map =
          Contains(holder) ? &GroupOf(holder).replica_holder : nullptr;
      if (map == nullptr || !map->contains(owner) || map->at(owner) != holder) {
        return Status::Internal("held order out of step with the holders");
      }
    }
  }
  if (held != replicas) {
    return Status::Internal("held order out of step with the holders");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Replica bookkeeping: every change goes through these and lands in the diff
// ---------------------------------------------------------------------------

GroupId GroupPlan::NewGroup() {
  const GroupId gid = next_group_id_++;
  groups_[gid].id = gid;
  return gid;
}

MdsId GroupPlan::PlacementTarget(const Group& g, MdsId owner) const {
  assert(!g.members.empty());
  if (placement_ == ReplicaPlacement::kModularHash) {
    // Section 2.4's strawman: holder index = owner mod M'. Deterministic in
    // the member count, hence the re-placement storm when M' changes.
    return g.members[owner % g.members.size()];
  }
  return LightestMember(g);
}

void GroupPlan::Install(Group& g, MdsId owner, MdsId holder, bool migration,
                        ReplicaDiff& diff) {
  assert(!g.replica_holder.contains(owner));
  g.replica_holder[owner] = holder;
  held_[holder].push_back(owner);
  diff.ops.push_back({ReplicaOp::Kind::kInstall, owner, kInvalidMds, holder,
                      migration});
}

void GroupPlan::Move(Group& g, MdsId owner, MdsId to, ReplicaDiff& diff) {
  MdsId& holder = g.replica_holder.at(owner);
  diff.ops.push_back({ReplicaOp::Kind::kMove, owner, holder, to, true});
  EraseOwner(held_[holder], owner);
  held_[to].push_back(owner);
  holder = to;
}

void GroupPlan::Drop(Group& g, MdsId owner, ReplicaDiff& diff) {
  const auto it = g.replica_holder.find(owner);
  assert(it != g.replica_holder.end());
  const MdsId holder = it->second;
  g.replica_holder.erase(it);
  EraseOwner(held_[holder], owner);
  diff.ops.push_back({ReplicaOp::Kind::kDrop, owner, holder, kInvalidMds,
                      false});
}

// ---------------------------------------------------------------------------
// Group algebra (Sections 3.1 and 3.2)
// ---------------------------------------------------------------------------

void GroupPlan::EnsureCoverage(Group& g, const std::vector<MdsId>& alive,
                               ReplicaDiff& diff) {
  // Replicas that no longer belong here: owners that became members (their
  // own local filter covers them) or left.
  std::vector<MdsId> stale;
  for (const auto& [owner, holder] : g.replica_holder) {
    if (g.HasMember(owner) || !InSorted(alive, owner)) stale.push_back(owner);
  }
  for (const MdsId owner : stale) Drop(g, owner, diff);

  for (const MdsId owner : alive) {
    if (g.HasMember(owner) || g.replica_holder.contains(owner)) continue;
    Install(g, owner, PlacementTarget(g, owner), /*migration=*/true, diff);
  }

  // Modular-hash placement re-pins every replica to its computed member.
  if (placement_ == ReplicaPlacement::kModularHash) {
    std::vector<MdsId> misplaced;
    for (const auto& [owner, holder] : g.replica_holder) {
      if (PlacementTarget(g, owner) != holder) misplaced.push_back(owner);
    }
    for (const MdsId owner : misplaced) {
      Move(g, owner, PlacementTarget(g, owner), diff);
    }
  }
}

void GroupPlan::Split(GroupId victim, const std::vector<MdsId>& alive,
                      ReplicaDiff& diff) {
  const GroupId bid = NewGroup();
  Group& a = groups_.at(victim);
  Group& b = groups_.at(bid);
  const std::size_t move_count = a.size() / 2;  // floor(M/2)
  assert(move_count > 0);

  // The tail members of A form B; each replica stays physically where it
  // is and belongs to whichever group its holder landed in.
  b.members.assign(a.members.end() - static_cast<std::ptrdiff_t>(move_count),
                   a.members.end());
  a.members.resize(a.members.size() - move_count);
  for (const MdsId m : b.members) group_of_[m] = bid;
  for (auto it = a.replica_holder.begin(); it != a.replica_holder.end();) {
    if (b.HasMember(it->second)) {
      b.replica_holder.insert(*it);
      it = a.replica_holder.erase(it);
    } else {
      ++it;
    }
  }

  // Both halves must mirror the whole system again: the "migrate copies"
  // arrows of Fig. 5(a).
  EnsureCoverage(a, alive, diff);
  EnsureCoverage(b, alive, diff);
  diff.idbfa_multicasts += a.size() + b.size();
  diff.split = true;
}

void GroupPlan::Merge(GroupId dst_id, GroupId src_id,
                      const std::vector<MdsId>& alive, ReplicaDiff& diff) {
  Group src = std::move(groups_.at(src_id));
  groups_.erase(src_id);
  Group& dst = groups_.at(dst_id);
  for (const MdsId m : src.members) {
    dst.members.push_back(m);
    group_of_[m] = dst_id;
  }
  // Adopt src's replicas unless dst already covers the owner (then src's
  // copy is redundant) or the owner is now a member or gone.
  std::vector<MdsId> redundant;
  for (const auto& [owner, holder] : src.replica_holder) {
    if (dst.HasMember(owner) || dst.replica_holder.contains(owner) ||
        !InSorted(alive, owner)) {
      redundant.push_back(owner);
    }
  }
  for (const MdsId owner : redundant) Drop(src, owner, diff);
  dst.replica_holder.merge(src.replica_holder);
  // dst may have held replicas of src members; coverage fixes that.
  EnsureCoverage(dst, alive, diff);
  diff.idbfa_multicasts += dst.size();
  diff.merged = true;
}

void GroupPlan::MergeWhilePossible(const std::vector<MdsId>& alive,
                                   ReplicaDiff& diff) {
  // Paper: "this process repeats until no merging can be performed". Each
  // round merges the first pair (in group order) that fits within M.
  using Pair = std::pair<GroupId, GroupId>;
  const auto mergeable = [this]() -> std::optional<Pair> {
    for (auto a = groups_.begin(); a != groups_.end(); ++a) {
      for (auto b = std::next(a); b != groups_.end(); ++b) {
        if (a->second.size() + b->second.size() <= max_group_size_) {
          return std::make_pair(a->first, b->first);
        }
      }
    }
    return std::nullopt;
  };
  while (const auto pair = mergeable()) {
    Merge(pair->first, pair->second, alive, diff);
  }
}

bool GroupPlan::RemoveMember(MdsId id, ReplicaDiff& diff) {
  const GroupId gid = group_of_.at(id);
  Group& g = groups_.at(gid);
  g.members.erase(std::find(g.members.begin(), g.members.end(), id));
  group_of_.erase(id);
  assert(LoadOf(id) == 0);
  held_.erase(id);
  diff.idbfa_multicasts += g.size();  // the shrunken IDBFA, to the members
  if (!g.members.empty()) return true;
  groups_.erase(gid);
  return false;
}

// ---------------------------------------------------------------------------
// Membership events
// ---------------------------------------------------------------------------

PlanStep GroupPlan::PlanInitial(const std::vector<MdsId>& servers,
                                std::uint32_t max_group_size,
                                std::uint32_t initial_group_size,
                                ReplicaPlacement placement) {
  PlanStep step;
  GroupPlan& p = step.plan;
  p.max_group_size_ = std::max<std::uint32_t>(max_group_size, 1);
  p.placement_ = placement;
  if (servers.empty()) return step;

  // Balanced groups of at most `target` members (sizes differ by at most
  // one).
  const std::uint32_t target =
      initial_group_size == 0 ? p.max_group_size_
                              : std::min(initial_group_size, p.max_group_size_);
  const std::size_t ngroups = (servers.size() + target - 1) / target;
  const std::size_t base = servers.size() / ngroups;
  const std::size_t remainder = servers.size() % ngroups;
  std::size_t pos = 0;
  for (std::size_t gi = 0; gi < ngroups; ++gi) {
    const std::size_t size = base + (gi < remainder ? 1 : 0);
    Group& g = p.groups_.at(p.NewGroup());
    for (std::size_t i = pos; i < pos + size; ++i) {
      g.members.push_back(servers[i]);
      p.group_of_[servers[i]] = g.id;
    }
    pos += size;
  }
  for (auto& [gid, g] : p.groups_) p.EnsureCoverage(g, servers, step.diff);
  return step;
}

PlanStep GroupPlan::PlanJoin(MdsId newcomer, Rng& rng) const {
  assert(!Contains(newcomer));
  PlanStep step{*this, {}};
  GroupPlan& p = step.plan;
  ReplicaDiff& diff = step.diff;
  std::vector<MdsId> alive = Servers();
  alive.insert(std::upper_bound(alive.begin(), alive.end(), newcomer),
               newcomer);

  // The smallest group with room (the first on a tie).
  const auto with_room = [&p]() -> std::optional<GroupId> {
    std::optional<GroupId> best;
    for (const auto& [gid, g] : p.groups_) {
      if (g.size() < p.max_group_size_ &&
          (!best || g.size() < p.groups_.at(*best).size())) {
        best = gid;
      }
    }
    return best;
  };
  std::optional<GroupId> target = with_room();
  if (!target) {
    if (p.max_group_size_ >= 2 && !p.groups_.empty()) {
      // Split a random full group; the newcomer then joins the smaller half.
      auto victim = p.groups_.begin();
      std::advance(victim, rng.NextBounded(p.groups_.size()));
      p.Split(victim->first, alive, diff);
      target = with_room();
    } else {
      target = p.NewGroup();  // M = 1: nothing to split
    }
  }

  Group& g = p.groups_.at(*target);
  g.members.push_back(newcomer);
  p.group_of_[newcomer] = *target;
  // A split covered the then group-less newcomer as an outsider, and that
  // replica must go; a new group of one receives every outsider.
  p.EnsureCoverage(g, alive, diff);

  // Section 3.1's light-weight migration: each member sheds its most
  // recently received replicas down to the new average, floor division, so
  // the newcomer receives about (N - M')/(M' + 1).
  if (p.placement_ == ReplicaPlacement::kLeastLoaded) {
    const std::size_t target_load = (alive.size() - g.size()) / g.size();
    for (const MdsId m : g.members) {
      if (m == newcomer) continue;
      const std::vector<MdsId>& held = p.held_[m];
      while (held.size() > target_load) p.Move(g, held.back(), newcomer, diff);
    }
  }
  diff.idbfa_multicasts += g.size() - 1;

  // The newcomer's (empty) filter goes to one member of every other group
  // (a split may already have covered it there).
  for (auto& [gid, other] : p.groups_) {
    if (gid == *target || other.replica_holder.contains(newcomer)) continue;
    p.Install(other, newcomer, p.PlacementTarget(other, newcomer),
              /*migration=*/false, diff);
  }
  return step;
}

PlanStep GroupPlan::PlanLeave(MdsId id) const {
  PlanStep step{*this, {}};
  GroupPlan& p = step.plan;
  ReplicaDiff& diff = step.diff;
  diff.departed = id;
  const GroupId gid = p.group_of_.at(id);
  Group& g = p.groups_.at(gid);

  // The leaver's replicas move to its lightest co-members (the first
  // listed on a tie); a group of one has nobody to hand them to.
  for (const MdsId owner : p.ReplicasHeldBy(id)) {
    if (g.size() == 1) {
      p.Drop(g, owner, diff);
      continue;
    }
    const MdsId best = *std::min_element(
        g.members.begin(), g.members.end(), [&](MdsId a, MdsId b) {
          return std::pair(a == id, p.LoadOf(a)) <
                 std::pair(b == id, p.LoadOf(b));
        });
    p.Move(g, owner, best, diff);
  }
  const bool survives = p.RemoveMember(id, diff);
  for (auto& [ogid, other] : p.groups_) {
    if (other.replica_holder.contains(id)) p.Drop(other, id, diff);
  }
  // The leaver's files drain to its own group, or to every survivor when
  // the group empties.
  diff.drain_targets = survives ? p.groups_.at(gid).members : p.Servers();
  if (survives) p.MergeWhilePossible(p.Servers(), diff);
  return step;
}

PlanStep GroupPlan::PlanFail(MdsId id) const {
  PlanStep step{*this, {}};
  GroupPlan& p = step.plan;
  ReplicaDiff& diff = step.diff;
  diff.departed = id;
  const GroupId gid = p.group_of_.at(id);
  // The replicas the dead server held are gone with it.
  for (const MdsId owner : p.ReplicasHeldBy(id)) {
    p.Drop(p.groups_.at(gid), owner, diff);
  }
  const bool survives = p.RemoveMember(id, diff);
  // "Once an MDS failure is detected, the corresponding Bloom filters are
  // removed from the other MDSs to reduce the number of false positives."
  for (auto& [ogid, other] : p.groups_) {
    if (other.replica_holder.contains(id)) p.Drop(other, id, diff);
  }
  if (survives) {
    // Re-fetch the lost replicas from their owners.
    const std::vector<MdsId> alive = p.Servers();
    p.EnsureCoverage(p.groups_.at(gid), alive, diff);
    p.MergeWhilePossible(alive, diff);
  }
  return step;
}

Result<PlanStep> GroupPlan::PlanSplit(GroupId victim) const {
  const auto it = groups_.find(victim);
  if (it == groups_.end()) return Status::NotFound("no such group");
  if (it->second.size() < 2) {
    return Status::InvalidArgument("group too small to split");
  }
  PlanStep step{*this, {}};
  step.plan.Split(victim, Servers(), step.diff);
  return step;
}

PlanStep GroupPlan::PlanMove(MdsId owner, MdsId to) const {
  PlanStep step{*this, {}};
  step.plan.Move(step.plan.groups_.at(group_of_.at(to)), owner, to,
                 step.diff);
  return step;
}

}  // namespace ghba

#include "core/ghba_cluster.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"

namespace ghba {

GhbaCluster::GhbaCluster(ClusterConfig config, ReplicaPlacement placement,
                         bool use_lru)
    : ClusterBase(config), placement_(placement), use_lru_(use_lru) {
  for (std::uint32_t i = 0; i < config_.num_mds; ++i) NewNode();

  (void)Apply(GroupPlan::PlanInitial(alive_, config_.max_group_size,
                                     config_.initial_group_size, placement_));
  metrics_.Reset();  // construction traffic is not part of any experiment
}

std::string GhbaCluster::SchemeName() const {
  if (config_.max_group_size == 1) return use_lru_ ? "HBA" : "BFA";
  return placement_ == ReplicaPlacement::kLeastLoaded ? "G-HBA"
                                                      : "G-HBA/hash-placement";
}

// ---------------------------------------------------------------------------
// Replica management
// ---------------------------------------------------------------------------

void GhbaCluster::RechargeHolder(MdsId holder) {
  if (!IsAlive(holder)) return;
  MdsNode& n = node(holder);
  std::uint64_t replica_bytes = 0;
  for (const auto& entry : n.segment().entries()) {
    replica_bytes += PublishedReplicaBytes(entry.owner);
  }
  ChargeMemory(holder, replica_bytes);
}

// ---------------------------------------------------------------------------
// Publish (replica update) path
// ---------------------------------------------------------------------------

void GhbaCluster::MaybePublish(MdsId owner, double now_ms) {
  if (node(owner).mutations_since_publish() >= config_.publish_after_mutations) {
    PublishReplica(owner, now_ms);
  }
}

void GhbaCluster::PublishReplica(MdsId owner, double now_ms) {
  (void)now_ms;
  MdsNode& n = node(owner);
  BloomFilter snapshot = n.SnapshotLocalFilter();
  n.SetPublishedSnapshot(snapshot);
  n.MarkPublished();
  SetPublishedFileCount(owner, n.file_count());

  std::uint64_t messages = 0;
  std::uint64_t targets = 0;
  double apply_cost = 0;
  const GroupId own_group = plan_.GroupOf(owner).id;

  for (const auto& [gid, g] : plan_.groups()) {
    if (gid == own_group) continue;
    const auto it = g.replica_holder.find(owner);
    if (it == g.replica_holder.end()) continue;  // group has no coverage yet
    const MdsId holder = it->second;

    // Protocol fidelity: the updater locates the holder through the group's
    // IDBFA. A multi-hit sends the update to every candidate; wrong ones
    // simply drop it (Section 2.4), costing one wasted message each.
    const auto loc = idbfa_.at(gid).Locate(owner);
    if (loc.kind == ArrayQueryResult::Kind::kMultiHit) {
      messages += loc.all_hits.size() - 1;
    }

    const Status s = node(holder).segment().RefreshEntry(owner, snapshot);
    assert(s.ok());
    (void)s;
    messages += 2;  // update + ack
    ++targets;
    // Applying the update to a disk-resident replica costs a page write.
    apply_cost = std::max(apply_cost, ReplicaOverflowFraction(holder) *
                                          config_.latency.spilled_probe_ms);
    RechargeHolder(holder);
  }
  RechargeHolder(owner);  // own published size may have changed

  metrics_.update_latency_ms.Add(config_.latency.Multicast(targets) +
                                 apply_cost);
  metrics_.update_messages += messages;
  metrics_.messages += messages;
  ++metrics_.publishes;
}

void GhbaCluster::FlushReplicas(double now_ms) {
  for (const MdsId id : alive_) PublishReplica(id, now_ms);
}

// ---------------------------------------------------------------------------
// Lookup: the four-level critical path (Section 2.3)
// ---------------------------------------------------------------------------

GhbaCluster::VerifyOutcome GhbaCluster::VerifyAt(MdsId candidate,
                                                 const std::string& path) {
  VerifyOutcome out;
  out.found = node(candidate).store().Contains(path);
  out.cost_ms = config_.latency.MetadataRead(MetadataCacheHitProb(candidate));
  return out;
}

void GhbaCluster::LocalHitsInto(MdsId holder, QueryDigest& digest,
                                std::vector<MdsId>& hits) const {
  const MdsNode& n = node(holder);
  // All replicas share one geometry/seed: one digest serves every probe.
  n.segment().QuerySharedInto(digest, hits);
  if (n.LocalFilterContains(digest)) hits.push_back(holder);
}

LookupOutcome GhbaCluster::Lookup(const std::string& path, double now_ms) {
  LookupOutcome res;
  const MdsId entry = RandomMds();
  MdsNode& e = node(entry);
  double lat = 0;
  std::uint64_t msgs = 0;
  // Digest-once: one QueryDigest per operation serves every filter probe in
  // the four-level walk (and the Touch/Invalidate maintenance afterwards).
  QueryDigest digest(path);
  std::vector<MdsId>& already_verified = scratch_.already_verified;
  already_verified.clear();
  std::vector<MdsId>& contacted = scratch_.contacted;
  contacted.clear();

  // Trace bookkeeping: simulated time is attributed to the level that was
  // active when it accrued; `level_mark` is the latency already attributed.
  double level_mark = 0;
  std::array<double, 4> level_ms{};
  const auto close_level = [&](int level) {
    level_ms[static_cast<std::size_t>(level - 1)] += lat - level_mark;
    level_mark = lat;
  };
  const auto contact = [&](MdsId peer) {
    if (peer == entry) return;
    if (std::find(contacted.begin(), contacted.end(), peer) ==
        contacted.end()) {
      contacted.push_back(peer);
    }
  };

  const auto finish = [&](int level, bool found, MdsId home) {
    if (found && use_lru_) e.lru().Touch(digest, home);  // remember at L1
    // Cooperative caching: an expensive (L3/L4) discovery is worth sharing
    // with the group so peers resolve the file at L1 next time.
    if (found && level >= 3 && use_lru_ && config_.cooperative_lru) {
      for (const MdsId m : plan_.GroupOf(entry).members) {
        if (m == entry) continue;
        node(m).lru().Touch(digest, home);
        ++msgs;  // one-way hint
        contact(m);
      }
    }
    close_level(level);
    res.trace.level = static_cast<std::uint8_t>(level);
    for (std::size_t i = 0; i < level_ms.size(); ++i) {
      res.trace.level_elapsed_ns[i] =
          static_cast<std::uint64_t>(level_ms[i] * 1e6);
    }
    res.trace.peers_contacted = static_cast<std::uint32_t>(contacted.size());
    res.found = found;
    res.home = home;
    res.latency_ms = lat;
    res.served_level = level;
    res.messages = msgs;
    metrics_.lookup_latency_ms.Add(lat);
    metrics_.lookup_messages += msgs;
    metrics_.messages += msgs;
    switch (level) {
      case 1:
        ++metrics_.levels.l1;
        metrics_.l1_latency_ms.Add(lat);
        break;
      case 2:
        ++metrics_.levels.l2;
        metrics_.l2_latency_ms.Add(lat);
        break;
      case 3:
        ++metrics_.levels.l3;
        metrics_.group_latency_ms.Add(lat);
        break;
      default:
        if (found) {
          ++metrics_.levels.l4;
        } else {
          ++metrics_.levels.miss;
        }
        metrics_.global_latency_ms.Add(lat);
        break;
    }
    return res;
  };

  const auto verify_candidate = [&](MdsId candidate) {
    if (candidate != entry) {
      lat += config_.latency.Unicast();
      msgs += 2;
      contact(candidate);
    }
    const auto v = VerifyAt(candidate, path);
    lat += ServeAt(candidate, now_ms + lat, v.cost_ms);
    already_verified.push_back(candidate);
    if (!v.found) {
      ++metrics_.false_routes;
      res.trace.false_route = true;
    }
    return v.found;
  };

  // --- L1: local LRU Bloom-filter array (none when L1 is off) ---
  double entry_ms = config_.latency.local_proc_ms;
  if (use_lru_) {
    entry_ms += config_.latency.ArrayProbe(
        std::max<std::uint64_t>(e.lru().home_count(), 1));
  }
  lat += ServeAt(entry, now_ms, entry_ms);
  if (use_lru_) {
    ArrayQueryResult& l1 = scratch_.l1;
    e.lru().Query(digest, l1);
    if (l1.unique() && IsAlive(l1.owner)) {
      if (verify_candidate(l1.owner)) return finish(1, true, l1.owner);
      e.lru().Invalidate(digest);  // stale cache entry
    }
  }
  close_level(1);

  // --- L2: local segment array (theta replicas + own filter) ---
  lat += ServeAt(entry, now_ms + lat, ProbeCost(entry, e.segment().size() + 1));
  std::vector<MdsId>& l2_hits = scratch_.l2_hits;
  l2_hits.clear();
  LocalHitsInto(entry, digest, l2_hits);
  if (l2_hits.size() == 1) {
    const MdsId candidate = l2_hits.front();
    const bool fresh = std::find(already_verified.begin(),
                                 already_verified.end(),
                                 candidate) == already_verified.end();
    if (fresh && verify_candidate(candidate)) return finish(2, true, candidate);
  }
  close_level(2);

  // --- L3: multicast within the group ---
  const Group& g = plan_.GroupOf(entry);
  if (g.size() > 1) {
    const std::uint64_t peers = g.size() - 1;
    msgs += 2 * peers;
    for (const MdsId m : g.members) contact(m);
    const double mcast = config_.latency.Multicast(peers);

    double slowest_peer = 0;
    std::vector<MdsId>& candidates = scratch_.candidates;
    candidates.assign(l2_hits.begin(), l2_hits.end());  // entry's own hits
    for (const MdsId m : g.members) {
      if (m == entry) continue;
      const double work =
          config_.latency.local_proc_ms +
          ProbeCost(m, node(m).segment().size() + 1);
      slowest_peer =
          std::max(slowest_peer, ServeAt(m, now_ms + lat + mcast, work));
      LocalHitsInto(m, digest, candidates);
    }
    lat += mcast + slowest_peer;

    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const MdsId c : candidates) {
      if (std::find(already_verified.begin(), already_verified.end(), c) !=
          already_verified.end()) {
        continue;
      }
      if (verify_candidate(c)) return finish(3, true, c);
    }
  }
  close_level(3);

  // --- L4: global multicast; exact (local filters have no false negatives,
  // positives are verified against the on-disk store) ---
  const std::uint64_t others = NumMds() - 1;
  msgs += 2 * others;
  for (const MdsId m : alive_) contact(m);
  const double gcast = config_.latency.Multicast(others);
  double slowest_verify = 0;
  MdsId found_home = kInvalidMds;
  for (const MdsId m : alive_) {
    double work = config_.latency.local_proc_ms + config_.latency.ArrayProbe(1);
    bool positive = node(m).LocalFilterContains(digest);
    bool found_here = false;
    if (positive) {
      const auto v = VerifyAt(m, path);
      work += v.cost_ms;
      found_here = v.found;
    }
    slowest_verify =
        std::max(slowest_verify, ServeAt(m, now_ms + lat + gcast, work));
    if (found_here) found_home = m;
  }
  lat += gcast + slowest_verify;
  return finish(4, found_home != kInvalidMds, found_home);
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

Status GhbaCluster::CreateFile(const std::string& path, FileMetadata metadata,
                               double now_ms) {
  if (OracleHome(path) != kInvalidMds) return Status::AlreadyExists(path);
  const MdsId home = RandomMds();
  if (Status s = node(home).AddLocalFile(path, std::move(metadata)); !s.ok()) {
    return s;
  }
  const Status oracle = OracleInsert(path, home);
  assert(oracle.ok());
  (void)oracle;
  metrics_.messages += 2;  // client -> home request + ack
  // Occupy the home for the store write plus its WAL-fsync share.
  (void)ChargeMutation(home, now_ms);
  MaybePublish(home, now_ms);
  return Status::Ok();
}

Status GhbaCluster::UnlinkFile(const std::string& path, double now_ms) {
  const MdsId home = OracleHome(path);
  if (home == kInvalidMds) return Status::NotFound(path);
  if (Status s = node(home).RemoveLocalFile(path); !s.ok()) return s;
  const Status oracle = OracleErase(path);
  assert(oracle.ok());
  (void)oracle;
  metrics_.messages += 2;
  (void)ChargeMutation(home, now_ms);
  MaybePublish(home, now_ms);
  return Status::Ok();
}

Result<std::uint64_t> GhbaCluster::RenamePrefix(const std::string& old_prefix,
                                                const std::string& new_prefix,
                                                double now_ms,
                                                ReconfigReport* report) {
  // Placement does not depend on pathnames: renames are home-local filter
  // updates, zero migration (the Table 1 advantage over pathname hashing).
  (void)report;  // nothing migrates, nothing to report
  return RenameKeysKeepingHomes(
      old_prefix, new_prefix, now_ms,
      [this](MdsId home, double now) { MaybePublish(home, now); });
}

// ---------------------------------------------------------------------------
// Reconfiguration (Sections 3.1 and 3.2)
// ---------------------------------------------------------------------------

ReconfigReport GhbaCluster::Apply(PlanStep step) {
  ReconfigReport cost;
  for (const ReplicaOp& op : step.diff.ops) {
    Status s;
    if (op.kind == ReplicaOp::Kind::kInstall) {
      const MdsNode& owner = node(op.owner);
      const BloomFilter* published = owner.published_snapshot();
      s = node(op.to).segment().AddEntry(
          op.owner,
          published != nullptr ? *published : owner.SnapshotLocalFilter());
    } else {  // a move carries the holder's copy over; a drop discards it
      auto filter = node(op.from).segment().RemoveEntry(op.owner);
      s = filter.status();
      if (filter.ok() && op.kind == ReplicaOp::Kind::kMove) {
        s = node(op.to).segment().AddEntry(op.owner, std::move(*filter));
      }
    }
    assert(s.ok());
    (void)s;
    ++cost.messages;  // replica shipped, handed over, or delete notification
    if (op.migration) ++cost.replicas_migrated;
  }
  cost.messages += step.diff.idbfa_multicasts;
  cost.group_split = step.diff.split;
  cost.group_merged = step.diff.merged;

  plan_ = std::move(step.plan);
  idbfa_.clear();
  for (const auto& [gid, g] : plan_.groups()) {
    IdBloomArray& idbfa = idbfa_[gid];
    for (const MdsId m : g.members) idbfa.AddMember(m);
    for (const auto& [owner, holder] : g.replica_holder) {
      (void)idbfa.AddReplica(holder, owner);  // holder was just registered
    }
  }
  for (const MdsId id : alive_) RechargeHolder(id);
  return cost;
}

void GhbaCluster::Charge(const ReconfigReport& delta, ReconfigReport* report) {
  if (report != nullptr) {
    report->replicas_migrated += delta.replicas_migrated;
    report->files_migrated += delta.files_migrated;
    report->messages += delta.messages;
    report->group_split |= delta.group_split;
    report->group_merged |= delta.group_merged;
  }
  metrics_.replicas_migrated += delta.replicas_migrated;
  metrics_.reconfig_messages += delta.messages;
  metrics_.messages += delta.messages;
}

Result<MdsId> GhbaCluster::AddMds(ReconfigReport* report) {
  const MdsId nid = NewNode();
  Charge(Apply(plan_.PlanJoin(nid, rng_)), report);
  return nid;
}

Status GhbaCluster::RemoveMds(MdsId id, ReconfigReport* report) {
  if (!IsAlive(id)) return Status::NotFound("no such MDS");
  if (alive_.size() == 1) {
    return Status::InvalidArgument("cannot remove the last MDS");
  }
  PlanStep step = plan_.PlanLeave(id);
  const std::vector<MdsId> targets = step.diff.drain_targets;
  ReconfigReport cost = Apply(std::move(step));

  // Re-home the departing MDS's files to the drain targets, round-robin.
  auto files = node(id).store().ExtractAll();
  std::size_t rr = 0;
  for (auto& [path, md] : files) {
    const MdsId tgt = targets[rr++ % targets.size()];
    const Status s = node(tgt).AddLocalFile(path, std::move(md));
    assert(s.ok());
    (void)s;
    oracle_[path] = tgt;
  }
  cost.files_migrated += files.size();
  cost.messages += files.size();

  RetireNode(id);

  // Receivers' filters changed substantially: publish them immediately.
  for (const MdsId tgt : targets) PublishReplica(tgt, 0.0);
  Charge(cost, report);
  return Status::Ok();
}

Status GhbaCluster::FailMds(MdsId id, ReconfigReport* report) {
  if (!IsAlive(id)) return Status::NotFound("no such MDS");
  if (alive_.size() == 1) {
    return Status::InvalidArgument("cannot fail the last MDS");
  }
  // Heart-beats detected the crash. The files homed there are gone with the
  // node (data-loss handling is a higher layer's job); count them.
  lost_files_ += node(id).file_count();
  std::vector<std::string> dead_paths;
  node(id).store().ForEach(
      [&](const std::string& path, const FileMetadata&) {
        dead_paths.push_back(path);
      });
  for (const auto& path : dead_paths) oracle_.erase(path);

  const ReconfigReport cost = Apply(plan_.PlanFail(id));
  // Evict stale L1 entries pointing at the dead node.
  for (const MdsId a : alive_) {
    if (a != id) node(a).lru().DropHome(id);
  }
  RetireNode(id);
  Charge(cost, report);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::uint64_t GhbaCluster::LookupStateBytes(MdsId id) const {
  const MdsNode& n = node(id);
  std::uint64_t bytes = PublishedReplicaBytes(id);  // own filter
  for (const auto& entry : n.segment().entries()) {
    bytes += PublishedReplicaBytes(entry.owner);
  }
  if (use_lru_) bytes += n.lru().MemoryBytes();
  // A lone member has no peer to locate a replica among: no IDBFA.
  if (plan_.Contains(id) && plan_.GroupOf(id).size() > 1) {
    bytes += idbfa_.at(plan_.GroupOf(id).id).MemoryBytes();
  }
  return bytes;
}

Status GhbaCluster::CheckInvariants() const {
  if (Status s = plan_.Check(); !s.ok()) return s;
  if (plan_.Servers() != alive_) {
    return Status::Internal("group membership does not partition the MDSs");
  }
  // Every replica the plan assigns sits in its holder's segment array and
  // is locatable through the group's IDBFA; no segment holds more.
  for (const auto& [gid, g] : plan_.groups()) {
    const IdBloomArray& idbfa = idbfa_.at(gid);
    for (const auto& [owner, holder] : g.replica_holder) {
      if (!node(holder).segment().HasEntry(owner)) {
        return Status::Internal("segment array missing a held replica");
      }
      const auto loc = idbfa.Locate(owner);
      if (std::find(loc.all_hits.begin(), loc.all_hits.end(), holder) ==
          loc.all_hits.end()) {
        return Status::Internal("IDBFA cannot locate a held replica");
      }
    }
  }
  for (const MdsId id : alive_) {
    if (node(id).segment().size() != plan_.LoadOf(id)) {
      return Status::Internal("segment array holds an unassigned replica");
    }
  }
  return Status::Ok();
}

}  // namespace ghba

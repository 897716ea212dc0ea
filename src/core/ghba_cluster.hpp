// G-HBA: Group-based Hierarchical Bloom filter Array cluster.
//
// The paper's primary contribution. MDSs are partitioned into groups of at
// most M members. Lookups walk the four-level hierarchy (L1 local LRU array,
// L2 local segment array, L3 group multicast, L4 global multicast). Replica
// placement inside a group goes through the IDBFA. Reconfiguration (Section
// 3.1's light-weight migration, Section 3.2's split and merge) is planned by
// core::GroupPlan; this class applies each ReplicaDiff to its segment arrays
// and IDBFAs and charges it to the cost model. Replica updates are
// staleness-bounded (Section 3.4's XOR criterion, operationalized as a
// mutation budget) and touch only one MDS per group.
//
// The baselines are this class at M = 1 (max_group_size = 1). A group of
// one holds the replica of every other MDS, so each node carries the full
// global image, and the walk has no group level: that is HBA (Zhu et al.,
// the scheme G-HBA extends), and with L1 off (`use_lru == false`) the pure
// Bloom Filter Array (BFA) of Table 5. A lone member has no peer to locate
// a replica among, so it is charged no IDBFA bytes.
#pragma once

#include <map>
#include <vector>

#include "bloom/id_bloom_array.hpp"
#include "core/cluster.hpp"
#include "core/group_plan.hpp"
#include "hash/query_digest.hpp"

namespace ghba {

class GhbaCluster final : public ClusterBase {
 public:
  /// `use_lru == false` turns L1 off: no LRU array is probed, touched or
  /// counted (the BFA baseline at M = 1).
  explicit GhbaCluster(
      ClusterConfig config,
      ReplicaPlacement placement = ReplicaPlacement::kLeastLoaded,
      bool use_lru = true);

  std::string SchemeName() const override;

  LookupOutcome Lookup(const std::string& path, double now_ms) override;
  Status CreateFile(const std::string& path, FileMetadata metadata,
                    double now_ms) override;
  Status UnlinkFile(const std::string& path, double now_ms) override;
  Result<std::uint64_t> RenamePrefix(const std::string& old_prefix,
                                     const std::string& new_prefix,
                                     double now_ms,
                                     ReconfigReport* report) override;

  Result<MdsId> AddMds(ReconfigReport* report) override;
  Status RemoveMds(MdsId id, ReconfigReport* report) override;

  /// Abrupt failure (Section 4.5's heart-beat detected crash): unlike a
  /// graceful RemoveMds, the node's metadata is NOT migrated — it becomes
  /// unreachable until re-inserted by higher-level recovery. The fail-over
  /// protocol removes the dead node's filters everywhere (to stop false
  /// positives), migrates the *replicas it held* only if other members can
  /// reconstruct them from the owners, and keeps the service functional
  /// "albeit at a degraded performance and coverage level".
  Status FailMds(MdsId id, ReconfigReport* report);

  /// Files whose metadata was lost to failures (simulation bookkeeping).
  std::uint64_t lost_files() const { return lost_files_; }

  std::uint64_t LookupStateBytes(MdsId id) const override;

  /// Force-publish every MDS's filter to its replica holders (used after
  /// bulk population and by benchmarks that need a clean baseline).
  void FlushReplicas(double now_ms) override;

  /// Publish one MDS's filter now, regardless of the mutation budget.
  void PublishReplica(MdsId owner, double now_ms);

  // --- introspection for tests / benches ---
  std::size_t NumGroups() const { return plan_.NumGroups(); }

  /// Replicas held by `id` (theta in the paper's notation).
  std::size_t ThetaOf(MdsId id) const { return node(id).segment().size(); }

  /// Verify the planner's structural invariants (GroupPlan::Check), that
  /// the plan covers exactly the alive MDSs, and that every segment array
  /// and IDBFA matches the plan's holders.
  /// Returns OK or an Internal status describing the violation.
  Status CheckInvariants() const;

 private:
  // --- lookup helpers ---
  struct VerifyOutcome {
    bool found = false;
    double cost_ms = 0;
  };
  /// Authoritatively check `path` on `candidate` (store lookup with the
  /// cache model). Does not include network cost.
  VerifyOutcome VerifyAt(MdsId candidate, const std::string& path);

  /// Append membership hits on `holder`'s segment array + own filter to
  /// `hits` (not cleared). Digest-once: probes reuse `digest`'s per-seed
  /// cache instead of re-hashing the path per filter.
  void LocalHitsInto(MdsId holder, QueryDigest& digest,
                     std::vector<MdsId>& hits) const;

  /// Scratch buffers reused across Lookup calls so the hot path performs no
  /// transient allocations. Lookup is not re-entrant (single simulation
  /// thread), which makes member-owned scratch safe.
  struct LookupScratch {
    ArrayQueryResult l1;
    std::vector<MdsId> l2_hits;
    std::vector<MdsId> candidates;
    std::vector<MdsId> already_verified;
    std::vector<MdsId> contacted;  ///< distinct peers messaged (trace)
  };

  // --- reconfiguration ---
  /// Apply `step.diff` to the segment arrays, adopt `step.plan` and rebuild
  /// the IDBFAs from it. Returns the diff's cost: one message per replica
  /// op plus the IDBFA multicasts. Departed nodes are retired afterwards.
  ReconfigReport Apply(PlanStep step);
  /// Add `delta` to `report` (when given) and to the metrics.
  void Charge(const ReconfigReport& delta, ReconfigReport* report);

  /// Recompute a holder's analytic replica bytes and recharge its memory.
  void RechargeHolder(MdsId holder);

  void MaybePublish(MdsId owner, double now_ms);

  ReplicaPlacement placement_;
  bool use_lru_;
  GroupPlan plan_;
  /// Each group's ID Bloom-filter array, derived from plan_'s holders.
  std::map<GroupId, IdBloomArray> idbfa_;
  std::uint64_t lost_files_ = 0;
  LookupScratch scratch_;
};

}  // namespace ghba

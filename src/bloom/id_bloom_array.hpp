// ID Bloom Filter Array (IDBFA) — replica-location directory inside a group.
//
// Section 2.4: within a group, each BF replica lives on exactly one member
// MDS, and replicas migrate between members during reconfiguration. To
// update a replica one must first find which member currently holds it. The
// IDBFA holds one *counting* Bloom filter per group member, containing the
// owner-IDs of the replicas that member stores. Counting filters support
// deletion, which migration and member departure require.
//
// Multiple hits are tolerable (the falsely-identified member simply drops
// the request); the Locate() result therefore exposes every hit. An exact
// shadow map is intentionally NOT kept here — fidelity to the paper's
// probabilistic design is the point — but the filters are tiny (the paper
// quotes <0.1 KB per MDS at N=100), so callers can afford high bit ratios.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bloom/bloom_filter_array.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"

namespace ghba {

struct IdBloomArrayOptions {
  /// Counters per expected replica-ID; generous because the structure is
  /// tiny and false positives cost a wasted message.
  double counters_per_item = 16.0;
  /// Expected replica IDs per member filter.
  std::uint64_t expected_ids_per_member = 64;
  std::uint64_t seed = 0x2222;
};

class IdBloomArray {
 public:
  using Options = IdBloomArrayOptions;

  explicit IdBloomArray(Options options = Options());

  /// Register a group member (empty filter). Idempotent.
  void AddMember(MdsId member);

  /// Remove a member and its filter. The caller re-registers the replicas
  /// that member held under their new holders.
  Status RemoveMember(MdsId member);

  bool HasMember(MdsId member) const;
  std::vector<MdsId> Members() const;

  /// Record that `member` now holds the replica owned by `replica_owner`.
  Status AddReplica(MdsId member, MdsId replica_owner);

  /// Record that `member` no longer holds `replica_owner`'s replica.
  Status RemoveReplica(MdsId member, MdsId replica_owner);

  /// Probabilistic location of the member holding `replica_owner`'s
  /// replica. kUniqueHit gives the member id; kMultiHit lists candidates.
  ArrayQueryResult Locate(MdsId replica_owner) const;

  std::uint64_t MemoryBytes() const;

  void Serialize(ByteWriter& out) const;
  static Result<IdBloomArray> Deserialize(ByteReader& in);

 private:
  static Hash128 DigestOf(MdsId replica_owner, std::uint64_t seed);

  Options options_;
  // std::map keeps members ordered -> deterministic multicast order and
  // serialization; group sizes are single digits, so O(log M) is free.
  std::map<MdsId, CountingBloomFilter> filters_;
};

}  // namespace ghba

#include "bloom/id_bloom_array.hpp"

#include <cstring>

namespace ghba {

IdBloomArray::IdBloomArray(Options options) : options_(options) {}

Hash128 IdBloomArray::DigestOf(MdsId replica_owner, std::uint64_t seed) {
  std::uint8_t bytes[sizeof(MdsId)];
  std::memcpy(bytes, &replica_owner, sizeof(bytes));
  return Murmur3_128Raw(bytes, sizeof(bytes), seed);
}

void IdBloomArray::AddMember(MdsId member) {
  if (filters_.contains(member)) return;
  filters_.emplace(member, CountingBloomFilter::ForCapacity(
                               options_.expected_ids_per_member,
                               options_.counters_per_item, options_.seed));
}

Status IdBloomArray::RemoveMember(MdsId member) {
  if (filters_.erase(member) == 0) return Status::NotFound("unknown member");
  return Status::Ok();
}

bool IdBloomArray::HasMember(MdsId member) const {
  return filters_.contains(member);
}

std::vector<MdsId> IdBloomArray::Members() const {
  std::vector<MdsId> out;
  out.reserve(filters_.size());
  for (const auto& [member, filter] : filters_) out.push_back(member);
  return out;
}

Status IdBloomArray::AddReplica(MdsId member, MdsId replica_owner) {
  auto it = filters_.find(member);
  if (it == filters_.end()) return Status::NotFound("unknown member");
  it->second.Add(DigestOf(replica_owner, options_.seed));
  return Status::Ok();
}

Status IdBloomArray::RemoveReplica(MdsId member, MdsId replica_owner) {
  auto it = filters_.find(member);
  if (it == filters_.end()) return Status::NotFound("unknown member");
  // A member-leave for a replica that was never registered (or already
  // deregistered) is rejected by the counting filter without corrupting it;
  // surface that to the reconfiguration caller.
  return it->second.Remove(DigestOf(replica_owner, options_.seed));
}

ArrayQueryResult IdBloomArray::Locate(MdsId replica_owner) const {
  const Hash128 digest = DigestOf(replica_owner, options_.seed);
  ArrayQueryResult result;
  for (const auto& [member, filter] : filters_) {
    if (filter.MayContain(digest)) result.all_hits.push_back(member);
  }
  if (result.all_hits.size() == 1) {
    result.kind = ArrayQueryResult::Kind::kUniqueHit;
    result.owner = result.all_hits.front();
  } else if (!result.all_hits.empty()) {
    result.kind = ArrayQueryResult::Kind::kMultiHit;
  }
  return result;
}

std::uint64_t IdBloomArray::MemoryBytes() const {
  std::uint64_t total = 0;
  for (const auto& [member, filter] : filters_) total += filter.MemoryBytes();
  return total;
}

void IdBloomArray::Serialize(ByteWriter& out) const {
  out.PutDouble(options_.counters_per_item);
  out.PutU64(options_.expected_ids_per_member);
  out.PutU64(options_.seed);
  out.PutVarint(filters_.size());
  for (const auto& [member, filter] : filters_) {
    out.PutU32(member);
    filter.Serialize(out);
  }
}

Result<IdBloomArray> IdBloomArray::Deserialize(ByteReader& in) {
  Options options;
  auto cpi = in.GetDouble();
  if (!cpi.ok()) return cpi.status();
  options.counters_per_item = *cpi;
  auto expected = in.GetU64();
  if (!expected.ok()) return expected.status();
  options.expected_ids_per_member = *expected;
  auto seed = in.GetU64();
  if (!seed.ok()) return seed.status();
  options.seed = *seed;

  auto count = in.GetVarint();
  if (!count.ok()) return count.status();
  if (*count > 1'000'000) return Status::Corruption("too many members");

  IdBloomArray array(options);
  for (std::uint64_t i = 0; i < *count; ++i) {
    auto member = in.GetU32();
    if (!member.ok()) return member.status();
    auto filter = CountingBloomFilter::Deserialize(in);
    if (!filter.ok()) return filter.status();
    array.filters_.emplace(*member, std::move(*filter));
  }
  return array;
}

}  // namespace ghba

#include "workload.hpp"

#include <unordered_set>

#include "trace/profile.hpp"

namespace perfbench {

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "stat_hot") return Workload::kStatHot;
  if (name == "stat_cold") return Workload::kStatCold;
  if (name == "namespace_churn") return Workload::kChurn;
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kStatHot: return "stat_hot";
    case Workload::kStatCold: return "stat_cold";
    case Workload::kChurn: return "namespace_churn";
  }
  return "unknown";
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStat: return "lookup";
    case OpKind::kCreate: return "create";
    case OpKind::kUnlink: return "unlink";
    case OpKind::kRename: return "rename";
  }
  return "unknown";
}

std::string NamespacePath(const Shape& shape, std::uint64_t id) {
  return "/ns/d" + std::to_string(id % shape.dirs) + "/f" + std::to_string(id);
}

std::vector<std::uint64_t> ActiveSet(const Shape& shape, std::uint64_t seed) {
  ghba::Rng rng(ghba::Mix64(seed ^ 0xAC71BE5E7ULL));
  std::vector<std::uint64_t> picked;
  std::unordered_set<std::uint64_t> seen;
  const std::uint64_t want = std::min(shape.active, shape.files);
  while (picked.size() < want) {
    const std::uint64_t id = rng.NextBounded(shape.files);
    if (seen.insert(id).second) picked.push_back(id);
  }
  return picked;
}

void Ledger::Apply(const Op& op) {
  switch (op.kind) {
    case OpKind::kStat:
      return;
    case OpKind::kCreate:
      live.push_back(op.path);
      return;
    case OpKind::kUnlink:
    case OpKind::kRename:
      gone.push_back(op.path);
      if (op.kind == OpKind::kRename) live.push_back(op.dst);
      live[op.live_index] = live.back();
      live.pop_back();
      return;
  }
}

void Ledger::Drop(const Op& op) {
  if (op.kind != OpKind::kUnlink && op.kind != OpKind::kRename) return;
  live[op.live_index] = live.back();
  live.pop_back();
}

OpGenerator::OpGenerator(Workload workload, const Shape& shape,
                         const std::vector<std::uint64_t>& active,
                         std::uint64_t seed, unsigned thread)
    : workload_(workload),
      shape_(shape),
      active_(active),
      thread_(thread),
      rng_(ghba::Mix64(seed * 0x9E3779B97F4A7C15ULL + thread + 1)),
      zipf_(std::max<std::uint64_t>(active.size(), 1), shape.zipf_skew) {
  // INS-style temporal locality: re-touch a recently used file with the
  // INS trace profile's probability, over its recency window.
  const ghba::WorkloadProfile ins = ghba::InsProfile();
  rereference_prob_ = ins.rereference_prob;
  recent_.resize(ins.working_set);
  for (auto& slot : recent_) slot = active_[zipf_.Sample(rng_) - 1];
}

Op OpGenerator::Note(Op op) {
  if (generated_++ < 4096) {
    for (const char c : op.path + '|' + op.dst) {
      digest_ = (digest_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
  }
  return op;
}

Op OpGenerator::HotStat() {
  std::uint64_t id;
  if (rng_.NextBool(rereference_prob_)) {
    id = recent_[rng_.NextBounded(recent_.size())];
  } else {
    id = active_[zipf_.Sample(rng_) - 1];
  }
  recent_[recent_pos_] = id;
  recent_pos_ = (recent_pos_ + 1) % recent_.size();
  Op op;
  op.path = NamespacePath(shape_, id);
  return op;
}

Op OpGenerator::Stat() {
  if (workload_ != Workload::kStatCold) return HotStat();
  Op op;
  if (rng_.NextBool(shape_.absent_fraction)) {
    op.path = NamespacePath(shape_, shape_.files + rng_.NextBounded(shape_.files));
    op.expect_found = false;
  } else {
    op.path = NamespacePath(shape_, rng_.NextBounded(shape_.files));
  }
  return op;
}

std::string OpGenerator::NewName() {
  const std::uint64_t n = next_name_++;
  return "/ns/d" + std::to_string(n % shape_.dirs) + "/t" +
         std::to_string(thread_) + "-n" + std::to_string(n);
}

Op OpGenerator::Create() {
  Op op;
  op.kind = OpKind::kCreate;
  op.path = NewName();
  return op;
}

Op OpGenerator::RemoveOwned(OpKind kind, const Ledger& ledger) {
  if (ledger.live.empty()) return Create();
  Op op;
  op.kind = kind;
  op.live_index = rng_.NextBounded(ledger.live.size());
  op.path = ledger.live[op.live_index];
  if (kind == OpKind::kRename) op.dst = NewName();
  return op;
}

Op OpGenerator::Next(const Ledger& ledger) {
  if (workload_ != Workload::kChurn) return Note(Stat());
  // 60% stat, 20% create, 10% unlink, 10% rename.
  const double dice = rng_.NextDouble();
  if (dice < 0.6) return Note(Stat());
  if (dice < 0.8) return Note(Create());
  if (dice < 0.9) return Note(RemoveOwned(OpKind::kUnlink, ledger));
  return Note(RemoveOwned(OpKind::kRename, ledger));
}

Op OpGenerator::NextProbe(std::uint64_t i, const Ledger& ledger) {
  switch (i % 4) {
    case 2: return RemoveOwned(OpKind::kUnlink, ledger);
    case 3: return RemoveOwned(OpKind::kRename, ledger);
    default: return Create();
  }
}

}  // namespace perfbench

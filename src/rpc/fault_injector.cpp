#include "rpc/fault_injector.hpp"

#include <algorithm>

namespace ghba {

void FaultInjector::set_options(const Options& options) {
  MutexLock lock(&mu_);
  options_ = options;
  rng_ = Rng(options.seed);
}

FaultInjector::FramePlan FaultInjector::PlanFrame() {
  MutexLock lock(&mu_);
  ++counters_.frames;
  FramePlan plan;
  // One uniform draw picks among the fault classes so their probabilities
  // compose without overlapping (drop wins over truncate wins over corrupt).
  const double roll = rng_.NextDouble();
  double edge = options_.drop_prob;
  if (roll < edge) {
    ++counters_.drops;
    plan.action = FrameAction::kDrop;
    return plan;
  }
  edge += options_.truncate_prob;
  if (roll < edge) {
    ++counters_.truncations;
    plan.action = FrameAction::kTruncate;
    plan.mutation_seed = rng_.Next();
    return plan;
  }
  edge += options_.corrupt_prob;
  if (roll < edge) {
    ++counters_.corruptions;
    plan.action = FrameAction::kCorrupt;
    plan.mutation_seed = rng_.Next();
  }
  // Delays compose with delivery/corruption (a late frame can also be a
  // mangled one), drawn independently.
  if (options_.delay_prob > 0 && rng_.NextBool(options_.delay_prob)) {
    ++counters_.delays;
    const std::uint64_t cap = std::max<std::uint32_t>(options_.delay_ms_max, 1);
    plan.delay = std::chrono::milliseconds(1 + rng_.NextBounded(cap));
  }
  return plan;
}

FaultInjector::FramePlan FaultInjector::PlanFrame(std::uint16_t port,
                                                  std::uint16_t type) {
  {
    MutexLock lock(&mu_);
    const auto it = std::find_if(
        frame_faults_.begin(), frame_faults_.end(),
        [&](const ArmedFrameFault& f) {
          return f.port == port && f.type == type;
        });
    if (it != frame_faults_.end()) {
      FramePlan plan;
      plan.action = it->action;
      plan.mutation_seed = counters_.frames;
      frame_faults_.erase(it);
      ++counters_.frames;
      switch (plan.action) {
        case FrameAction::kDrop: ++counters_.drops; break;
        case FrameAction::kTruncate: ++counters_.truncations; break;
        case FrameAction::kCorrupt: ++counters_.corruptions; break;
        case FrameAction::kDeliver: break;
      }
      return plan;
    }
  }
  return PlanFrame();
}

void FaultInjector::ArmFrameFault(std::uint16_t port, std::uint16_t type,
                                  FrameAction action) {
  MutexLock lock(&mu_);
  frame_faults_.push_back(ArmedFrameFault{port, type, action});
}

bool FaultInjector::HasArmedFrameFaults() const {
  MutexLock lock(&mu_);
  return !frame_faults_.empty();
}

bool FaultInjector::RefuseConnect() {
  MutexLock lock(&mu_);
  if (options_.refuse_connect_prob <= 0) return false;
  if (!rng_.NextBool(options_.refuse_connect_prob)) return false;
  ++counters_.refused_connects;
  return true;
}

void FaultInjector::StallServer(MdsId id) {
  MutexLock lock(&mu_);
  stalled_.insert(id);
}

void FaultInjector::UnstallServer(MdsId id) {
  MutexLock lock(&mu_);
  stalled_.erase(id);
}

bool FaultInjector::IsStalled(MdsId id) const {
  MutexLock lock(&mu_);
  return stalled_.contains(id);
}

void FaultInjector::StallShard(MdsId id, std::uint32_t shard) {
  MutexLock lock(&mu_);
  stalled_shards_.emplace(id, shard);
}

void FaultInjector::UnstallShard(MdsId id, std::uint32_t shard) {
  MutexLock lock(&mu_);
  stalled_shards_.erase({id, shard});
}

bool FaultInjector::IsShardStalled(MdsId id, std::uint32_t shard) const {
  MutexLock lock(&mu_);
  return stalled_.contains(id) || stalled_shards_.contains({id, shard});
}

void FaultInjector::ArmCrashPoint(std::string tag) {
  MutexLock lock(&mu_);
  crash_points_.insert(std::move(tag));
}

bool FaultInjector::ConsumeCrashPoint(const std::string& tag) {
  MutexLock lock(&mu_);
  return crash_points_.erase(tag) > 0;
}

bool FaultInjector::HasArmedCrashPoints() const {
  MutexLock lock(&mu_);
  return !crash_points_.empty();
}

FaultInjector::Counters FaultInjector::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

void MutatePayload(const FaultInjector::FramePlan& plan,
                   std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return;
  Rng rng(plan.mutation_seed);
  switch (plan.action) {
    case FaultInjector::FrameAction::kTruncate: {
      // Keep a strict prefix; the receiver sees a short or unparseable body.
      const std::size_t keep = rng.NextBounded(payload.size());
      payload.resize(std::max<std::size_t>(keep, 1));
      break;
    }
    case FaultInjector::FrameAction::kCorrupt: {
      const std::size_t flips = 1 + rng.NextBounded(4);
      for (std::size_t i = 0; i < flips; ++i) {
        payload[rng.NextBounded(payload.size())] ^=
            static_cast<std::uint8_t>(1 + rng.NextBounded(255));
      }
      break;
    }
    case FaultInjector::FrameAction::kDeliver:
    case FaultInjector::FrameAction::kDrop:
      break;
  }
}

}  // namespace ghba

// Deterministic fault injection for the loopback prototype.
//
// One FaultInjector instance is shared by every socket that should misbehave
// (client connections and/or server-accepted connections) plus the MdsServer
// event loops. Each outgoing frame asks PlanFrame() for its fate — deliver,
// drop, delay, truncate, or corrupt — and each client connect asks
// RefuseConnect(). Decisions come from a single seeded Rng, so a fixed seed
// replays the same fault sequence for a fixed decision order (the chaos
// tests drive all faulted traffic from one client thread for exactly this
// reason). Servers can additionally be stalled: a stalled event loop stops
// servicing requests without closing its sockets, which is the failure mode
// heart-beat detection (paper Section 4.5) exists to catch.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/lookup_outcome.hpp"  // canonical MdsId
#include "common/rng.hpp"
#include "common/sync.hpp"

namespace ghba {

class FaultInjector {
 public:
  struct Options {
    double drop_prob = 0;            ///< frame vanishes; sender sees success
    double delay_prob = 0;           ///< frame delivered after a pause
    double truncate_prob = 0;        ///< frame cut short mid-payload
    double corrupt_prob = 0;         ///< random payload bytes flipped
    double refuse_connect_prob = 0;  ///< connect() attempts rejected
    std::uint32_t delay_ms_max = 5;  ///< delays drawn uniform from [1, max]
    std::uint64_t seed = 1;
  };

  FaultInjector() = default;
  explicit FaultInjector(const Options& options) { set_options(options); }

  /// Replace the probabilities/seed. Resets the decision stream.
  void set_options(const Options& options);

  enum class FrameAction { kDeliver, kDrop, kTruncate, kCorrupt };

  struct FramePlan {
    FrameAction action = FrameAction::kDeliver;
    std::chrono::milliseconds delay{0};
    /// Seed for the mutation (truncation point / corrupted byte positions),
    /// so the mutation itself is deterministic too.
    std::uint64_t mutation_seed = 0;
  };

  /// Decide the fate of one outgoing frame. Thread-safe.
  FramePlan PlanFrame();

  /// Decide the fate of one frame a client connection sends to `port`
  /// whose message type (first two payload bytes, little-endian) is
  /// `type`: a matching armed frame fault fires first, otherwise the
  /// seeded stream decides as in PlanFrame(). Thread-safe.
  FramePlan PlanFrame(std::uint16_t port, std::uint16_t type);

  /// Arm a one-shot fault for the next frame of message type `type` that a
  /// client connection sends to `port`. Armed faults draw nothing from the
  /// seeded stream, so a test can aim one drop or corruption at one probe
  /// without shifting the schedule of any other frame.
  void ArmFrameFault(std::uint16_t port, std::uint16_t type,
                     FrameAction action);
  /// Any armed frame fault still waiting for its frame?
  bool HasArmedFrameFaults() const;

  /// Decide whether a connect() attempt is refused. Thread-safe.
  bool RefuseConnect();

  /// Stall / resume a server's request service. While stalled the server's
  /// workers sleep in small slices (still honouring shutdown), so in-flight
  /// and new requests sit unanswered until their senders' deadlines expire.
  /// The IO thread keeps accepting and buffering — sockets stay open, which
  /// is exactly the failure mode heart-beats exist to detect.
  void StallServer(MdsId id);
  void UnstallServer(MdsId id);
  bool IsStalled(MdsId id) const;

  /// Stall / resume a single worker shard of one server. Requests routed to
  /// that shard park; every other shard keeps serving — the fairness case
  /// the sharded event loop must uphold. StallServer implies every shard.
  void StallShard(MdsId id, std::uint32_t shard);
  void UnstallShard(MdsId id, std::uint32_t shard);
  bool IsShardStalled(MdsId id, std::uint32_t shard) const;

  /// Arm a one-shot crash point by tag. When the instrumented operation
  /// reaches the boundary named by `tag`, it consumes the arm and stops the
  /// server whose state that boundary touched — abruptly, no drain,
  /// no bookkeeping — exactly as if the machine lost power there. Tags are
  /// free-form dotted strings owned by the instrumented code:
  ///   reconfig.<stage>.<id>  crash server <id> after the scatter round in
  ///                          which it answered that stage of a
  ///                          reconfiguration; <stage> is fetch, install
  ///                          or drop (PrototypeCluster::ApplyStepLocked)
  ///   txn.<phase>[.<k>]      crash the k-th target of a 2PC phase
  ///   txnhalt.<phase>[.<k>]  halt the 2PC driver (client death), server
  ///                          stays up
  /// Multiple tags may be armed at once; each fires at most once.
  void ArmCrashPoint(std::string tag);

  /// Consume the armed crash point `tag` (true at most once per arm).
  /// Thread-safe.
  bool ConsumeCrashPoint(const std::string& tag);

  /// Any crash point still armed? (Tests assert their arm actually fired.)
  bool HasArmedCrashPoints() const;

  struct Counters {
    std::uint64_t frames = 0;
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
    std::uint64_t truncations = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t refused_connects = 0;
  };
  Counters counters() const;

 private:
  // Below every server lock: workers probe IsShardStalled() while holding
  // their shard queue mutex, and the event thread draws frame plans mid-
  // flush; the injector itself never calls back out under mu_.
  mutable Mutex mu_{LockRank::kFaultInjector};
  /// One decision stream: options, RNG, counters, and the stalled set all
  /// advance together under mu_, so a fixed seed replays a fixed fault
  /// sequence regardless of which thread asks.
  Options options_ GHBA_GUARDED_BY(mu_);
  Rng rng_ GHBA_GUARDED_BY(mu_){1};
  Counters counters_ GHBA_GUARDED_BY(mu_);
  std::set<MdsId> stalled_ GHBA_GUARDED_BY(mu_);
  std::set<std::pair<MdsId, std::uint32_t>> stalled_shards_
      GHBA_GUARDED_BY(mu_);
  /// Armed one-shot crash-point tags (reconfig.*, txn.*, txnhalt.*).
  std::set<std::string> crash_points_ GHBA_GUARDED_BY(mu_);
  struct ArmedFrameFault {
    std::uint16_t port;
    std::uint16_t type;
    FrameAction action;
  };
  std::vector<ArmedFrameFault> frame_faults_ GHBA_GUARDED_BY(mu_);
};

/// Apply a kTruncate/kCorrupt plan to a payload copy: truncation drops a
/// suffix (at least one byte survives removal when possible); corruption
/// XORs 1–4 random bytes. kDeliver/kDrop plans leave the payload alone.
void MutatePayload(const FaultInjector::FramePlan& plan,
                   std::vector<std::uint8_t>& payload);

}  // namespace ghba

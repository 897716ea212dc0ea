// Concurrent read path of the loopback prototype (paper Section 5).
//
// The Router drives the four-level query protocol from the client side —
// the client library plays the coordinating role of the entry MDS. L1, L2
// and L3 share one round: the entry server gets its kLookupLocal and the
// rest of its group a kGroupProbe in one scatter. L4 multicasts one probe
// to every live server that has not already answered. Every server a
// probe reaches also answers for its own store (and leases the answer
// when asked), so a lookup whose home is in the entry's group ends in its
// first round. It also carries the other per-path client calls (verify,
// lease) and the per-peer transport every cluster call rides on.
//
// Nothing here takes the orchestrator's lock. The Router reads an
// immutable Topology snapshot that PrototypeCluster publishes by pointer
// swap after every topology change, and checks connections out of a
// per-peer pool, so any number of threads run lookups concurrently. The
// Router's own mutexes are held only to copy the snapshot pointer or to
// push or pop one pooled connection, never across I/O.
//
// Fan-out is scatter-gather: a frame is sent to every target, then every
// reply is gathered under one shared attempt deadline, so a round costs one
// round trip however many peers it asks. A scatter may send each target a
// different frame: a lookup's kLookupLocal rides the same round as its
// kGroupProbes, and a create's insert prepare the same round as the
// kGlobalProbes of its exact check. A peer whose fast-path exchange
// fails falls back to Call(): retries with jittered backoff (sleeping with
// nothing held), health accounting and, through the returned Suspects,
// fail-over once the caller has released everything.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/sync.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/health.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

namespace ghba {

/// Immutable routing view of the cluster. Every vector is indexed by MdsId.
struct Topology {
  std::uint64_t epoch = 0;  ///< routing epoch; every topology change bumps it
  bool grouped = true;      ///< G-HBA groups (false: HBA mesh, no L3)
  std::vector<std::uint16_t> port;     ///< loopback port; 0 = not live
  std::vector<MdsId> alive;            ///< live ids, ascending
  std::vector<std::vector<MdsId>> group;  ///< members of id's group

  std::uint16_t PortOf(MdsId id) const {
    return id < port.size() ? port[id] : 0;
  }
  bool Serves(std::uint16_t p) const {
    return p != 0 && std::find(port.begin(), port.end(), p) != port.end();
  }
};

/// What Router::Quiesce found, per live server of the snapshot.
struct QuiesceReport {
  /// Every idle connection answered its ping (or none was idle): each
  /// frame sent on a pooled connection before has been handled.
  std::vector<MdsId> drained;
  /// A ping failed and ConfirmDead agreed: its connections left the pool.
  std::vector<MdsId> down;
};

/// The insert prepare that carried a path's exact check (see
/// Router::PrepareExact).
struct ExactPrepare {
  /// The participant's raw reply to its kTxnPrepare.
  Result<std::vector<std::uint8_t>> vote = Status::Unavailable("never sent");
  /// Lowest live id holding the path; kInvalidMds when none said so.
  MdsId holder = kInvalidMds;
};

/// A peer whose call failures just made it suspected. The port pins the
/// incarnation: an id may be recycled by a later server.
struct Suspect {
  MdsId id = kInvalidMds;
  std::uint16_t port = 0;
};
using Suspects = std::vector<Suspect>;

class Router {
 public:
  Router(const RpcOptions& rpc, std::uint64_t seed,
         PeerHealthTracker* health, ClusterMetrics* metrics);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Swap in a new snapshot. Lookups already running keep the one they
  /// loaded; the next lookup sees this one. Idle connections to ports the
  /// snapshot no longer lists are closed, and none is pooled again, so
  /// publish a snapshot without a server before stopping it.
  void Publish(std::shared_ptr<const Topology> topology);
  std::shared_ptr<const Topology> Snapshot() const;
  /// The published snapshot's epoch: one atomic load.
  std::uint64_t Epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Client-side connections pick the injector up at their next checkout.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  /// Lookups hold this shared for their whole cascade; a drain that moves
  /// files between servers holds it exclusive, so no lookup observes a
  /// file that has left one store and not yet reached another.
  SharedMutex& drain_gate() GHBA_RETURN_CAPABILITY(gate_) { return gate_; }

  /// Request/response with the per-call budget: each attempt is bounded by
  /// rpc.attempt_timeout_ms, a failed attempt closes its connection and
  /// retries on a fresh one after a jittered backoff (slept with no mutex
  /// held), and the call never outlives rpc.call_budget_ms. Outcomes feed
  /// the health tracker; a peer that ends up suspected is appended to
  /// `suspects` for the caller to confirm and fail over. Retries are added
  /// to `*retries`. Port 0 means the server is down.
  Result<std::vector<std::uint8_t>> Call(MdsId id, std::uint16_t port,
                                         const std::vector<std::uint8_t>& req,
                                         Suspects* suspects,
                                         std::uint32_t* retries = nullptr);

  /// True when nothing at `port` answers any of rpc.ping_attempts kPing
  /// probes, each on a fresh connection.
  bool ConfirmDead(std::uint16_t port);

  /// Close the idle pooled connections to `port` (a server stopped
  /// without leaving the snapshot, as a crash does).
  void DropPeer(std::uint16_t port);

  /// kPing every idle pooled connection. Each connection is FIFO on the
  /// server side, so once its ping answers, every one-way frame sent on it
  /// before has been handled. A port whose ping fails and that
  /// ConfirmDead confirms is dropped from the pool and reported down, not
  /// as an error; any other failed ping is the returned error (its server
  /// is then in neither list of `report`).
  Status Quiesce(QuiesceReport* report = nullptr);

  /// One scatter target's outcome.
  struct Reply {
    MdsId id = kInvalidMds;
    Result<std::vector<std::uint8_t>> resp =
        Status::Unavailable("never sent");
  };

  /// Send `frames[i]` to `targets[i]` (or `frames[0]` to every target when
  /// `frames` holds one frame) before any reply is read, then gather every
  /// reply under one attempt deadline, so the round costs one round trip
  /// however many peers it asks. Targets whose exchange failed go through
  /// Retry() from attempt 1. Replies come back in target order.
  std::vector<Reply> Scatter(
      const Topology& topo, const std::vector<MdsId>& targets,
      std::span<const std::vector<std::uint8_t>* const> frames,
      Suspects* suspects, std::uint32_t* retries = nullptr);

  /// The four-level cascade. One scatter asks the entry (kLookupLocal) and
  /// the rest of its group (kGroupProbe); a `held` reply in that round
  /// ends the lookup at the level the entry-first walk would report (L1
  /// or L2 for the entry; for a peer, L1 if the entry's L1 hint named it,
  /// L2 if its L2 hits were exactly that peer, else L3). Otherwise the L1
  /// hint, a unique L2 hit and the L3 candidates are verified, then L4.
  /// Each server answers at most once: a server that answered "not here"
  /// is neither verified nor probed at L4. With `lease`, the home records
  /// a lease in the same reply and the outcome carries its TTL. With
  /// `teach_l1`, a hit teaches the entry server's L1 the path's home
  /// (kTouchLru); a mutation locating a path it is about to move passes
  /// false. Suspected peers are appended to `suspects`; the caller fails
  /// them over after this returns.
  Result<LookupOutcome> Lookup(const std::string& path, bool lease,
                               Suspects* suspects, bool teach_l1 = true);

  /// A create's exact check riding its insert prepare's round trip: one
  /// scatter sends `prepare` (a kTxnPrepare of `path`) to `participant`
  /// and a kGlobalProbe of `path` to every other live server. The vote
  /// answers for the participant's own store under its intent lock: a
  /// yes vote is "absent", AlreadyExists is "held". Like L4, it reports
  /// exactly one outcome to a drawn entry server (found at the holder, or
  /// a miss) when every server answered or someone holds the path;
  /// unleased, and it teaches no L1 hint. The caller acts on the verdict:
  /// this sends nothing else.
  ExactPrepare PrepareExact(const std::string& path, MdsId participant,
                            const std::vector<std::uint8_t>& prepare,
                            Suspects* suspects);

  /// Exact store membership of `path` on `id` (kVerify).
  Result<bool> Verify(MdsId id, const std::string& path, Suspects* suspects);

  /// Ask `home` for a lookup lease on `path` (kLeaseGrant). A shed
  /// request is kRetryAfter.
  Result<LeaseGrantResp> RequestLease(MdsId home, const std::string& path,
                                      Suspects* suspects);

 private:
  /// Per-lookup bookkeeping threaded through the level cascade: the
  /// snapshot it runs on, wall-clock attribution per level, distinct peers
  /// contacted, which servers already answered, retries, the lease and the
  /// trace under construction.
  struct QueryCtx;

  /// Pooled connection to `port`, or a fresh one opened within `deadline`.
  Result<TcpConnection> Checkout(std::uint16_t port, Deadline deadline);
  /// Return a connection whose last exchange completed cleanly.
  void Return(std::uint16_t port, TcpConnection conn);
  /// One bounded send+recv on a pooled connection; no retries, no health
  /// accounting. A server rejecting the request as mangled is kCorruption.
  Result<std::vector<std::uint8_t>> Exchange(
      std::uint16_t port, const std::vector<std::uint8_t>& req,
      Deadline deadline);
  /// Call() from attempt `first_attempt` on, `last` being the failure of
  /// the attempt before it (a fan-out's fast path is attempt 0).
  Result<std::vector<std::uint8_t>> Retry(
      MdsId id, std::uint16_t port, const std::vector<std::uint8_t>& req,
      std::uint32_t first_attempt, Status last, Suspects* suspects,
      std::uint32_t* retries);

  /// Scatter of one frame to every target.
  std::vector<Reply> FanOut(const Topology& topo,
                            const std::vector<MdsId>& targets,
                            const std::vector<std::uint8_t>& req,
                            Suspects* suspects, std::uint32_t* retries) {
    const std::vector<std::uint8_t>* const frame = &req;
    return Scatter(topo, targets, {&frame, 1}, suspects, retries);
  }

  /// Load the snapshot into `q`, set its options and start its clock, and
  /// draw its entry server. Unavailable when no server is live.
  Status StartQuery(QueryCtx& q, Suspects* suspects, bool lease,
                    bool teach_l1);
  /// L4: one kGlobalProbe multicast to every live server not in
  /// `q.absent`; the lowest id that holds the path answers (leased with
  /// one kLeaseGrant when `q.lease`). Unavailable when a peer could not
  /// answer and none held the path.
  Result<LookupOutcome> GlobalLevel(const std::string& path, QueryCtx& q);
  /// Verify `candidate` at most once per lookup, and never one that
  /// already answered "not here": kLeaseGrant when the lookup wants a
  /// lease, kVerify otherwise. A candidate that is not the home marks the
  /// trace as a false route.
  bool TryVerifyOnce(QueryCtx& q, MdsId candidate, const std::string& path);
  /// Completes a LookupOutcome: closes the serving level, seals the trace,
  /// accounts the query into the client metrics, fire-and-forgets a
  /// kReportOutcome to the entry server (Fig. 13 accounting lives
  /// server-side) and, on a hit the lookup may teach, a kTouchLru so the
  /// entry's L1 learns it.
  LookupOutcome FinishLookup(const std::string& path, QueryCtx& q, int level,
                             bool found, MdsId home);
  Status OneWay(std::uint16_t port, const std::vector<std::uint8_t>& frame);

  /// Uniform draw in [0, bound) from a lock-free counter-mode generator.
  std::uint64_t Draw(std::uint64_t bound);

  const RpcOptions rpc_;
  const std::uint64_t seed_;
  PeerHealthTracker* const health_;  // internally synchronized
  ClusterMetrics* const metrics_;    // internally synchronized

  /// Held only to copy or swap the snapshot pointer; nothing nests inside.
  /// (GCC 12's std::atomic<std::shared_ptr> is a lock-bit spinlock that
  /// ThreadSanitizer cannot model, so it would hide real races.)
  mutable Mutex topo_mu_{LockRank::kRouterSnapshot};
  std::shared_ptr<const Topology> topology_ GHBA_GUARDED_BY(topo_mu_);
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<FaultInjector*> injector_{nullptr};
  std::atomic<std::uint64_t> draws_{0};

  SharedMutex gate_{LockRank::kDrainGate};

  /// Held only to push or pop an idle connection; nothing nests inside.
  Mutex pool_mu_{LockRank::kRouterPool};
  std::unordered_map<std::uint16_t, std::vector<TcpConnection>> idle_
      GHBA_GUARDED_BY(pool_mu_);
  /// The last published snapshot: only ports it serves are pooled.
  std::shared_ptr<const Topology> pooled_for_ GHBA_GUARDED_BY(pool_mu_);
};

}  // namespace ghba

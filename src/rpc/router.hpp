// Concurrent read path of the loopback prototype (paper Section 5).
//
// The Router drives the four-level query protocol from the client side —
// the client library plays the coordinating role of the entry MDS: L1/L2
// run remotely on the entry server, L3 multicasts one probe to the rest of
// the entry's group, L4 multicasts one probe to every live server that has
// not already answered. Every server a probe reaches also answers for its
// own store (and leases the answer when asked), so a lookup ends at the
// first reply from its home. It also carries the other per-path client
// calls (verify, lease, invalidate) and the per-peer transport every
// cluster call rides on.
//
// Nothing here takes the orchestrator's lock. The Router reads an
// immutable Topology snapshot that PrototypeCluster publishes by pointer
// swap after every topology change, and checks connections out of a
// per-peer pool, so any number of threads run lookups concurrently. The
// Router's own mutexes are held only to copy the snapshot pointer or to
// push or pop one pooled connection, never across I/O.
//
// Fan-out is scatter-gather: one probe is sent to every target, then every
// reply is gathered under one shared attempt deadline, so a level costs one
// round trip however many peers it asks. A peer whose fast-path exchange
// fails falls back to Call(): retries with jittered backoff (sleeping with
// nothing held), health accounting and, through the returned Suspects,
// fail-over once the caller has released everything.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
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
  /// before has been handled.
  Status Quiesce();

  /// The four-level cascade. Each server answers at most once: the first
  /// `held` reply ends the lookup, and a server that answered "not here"
  /// is neither verified nor probed at L4. With `lease`, the home records
  /// a lease in the same reply and the outcome carries its TTL. Suspected
  /// peers are appended to `suspects`; the caller fails them over after
  /// this returns.
  Result<LookupOutcome> Lookup(const std::string& path, bool lease,
                               Suspects* suspects);

  /// Exact store membership of `path` on `id` (kVerify).
  Result<bool> Verify(MdsId id, const std::string& path, Suspects* suspects);

  /// Ask `home` for a lookup lease on `path` (kLeaseGrant). A shed
  /// request is kRetryAfter.
  Result<LeaseGrantResp> RequestLease(MdsId home, const std::string& path,
                                      Suspects* suspects);

  /// Multicast kInvalidate for `path` to every live server. An unreachable
  /// peer is skipped (its leases die by TTL); a peer that answers with an
  /// error fails the call.
  Status InvalidatePath(const std::string& path, Suspects* suspects);

 private:
  /// Per-lookup bookkeeping threaded through the level cascade: the
  /// snapshot it runs on, wall-clock attribution per level, distinct peers
  /// contacted, which servers already answered, retries, the lease and the
  /// trace under construction.
  struct QueryCtx;

  /// One fan-out target's outcome.
  struct Reply {
    MdsId id = kInvalidMds;
    Result<std::vector<std::uint8_t>> resp =
        Status::Unavailable("never sent");
  };

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

  /// Send `req` to every target, then gather every reply under one attempt
  /// deadline. Targets whose exchange failed go through Retry() from
  /// attempt 1. Replies come back in target order.
  std::vector<Reply> FanOut(const Topology& topo,
                            const std::vector<MdsId>& targets,
                            const std::vector<std::uint8_t>& req,
                            Suspects* suspects, std::uint32_t* retries);

  /// Verify `candidate` at most once per lookup, and never one that
  /// already answered "not here": kLeaseGrant when the lookup wants a
  /// lease, kVerify otherwise. A candidate that is not the home marks the
  /// trace as a false route.
  bool TryVerifyOnce(QueryCtx& q, MdsId candidate, const std::string& path);
  /// Completes a LookupOutcome: closes the serving level, seals the trace,
  /// accounts the query into the client metrics, fire-and-forgets a
  /// kReportOutcome to the entry server (Fig. 13 accounting lives
  /// server-side) and, on a hit, a kTouchLru so the entry's L1 learns it.
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

// Orchestrator of the loopback prototype (paper Section 5).
//
// Spawns one MdsServer per MDS and runs every mutation: inserts, unlinks,
// renames, joins, leaves, crashes, restarts, migrations and splits. Group
// membership and replica placement come from core::GroupPlan, the planner
// the simulator uses too: every topology change, a replica migration
// included, is "plan, then execute", where executing a ReplicaDiff costs
// one kGetFilter per owner whose filter is installed, one kReplicaFetch
// batch per old holder a move copies from, then one kBatch of installs per
// server, the publish of the new topology, and one kBatch of drops per
// server. Each of the four kinds goes out as one Router::Scatter, so it
// costs one round trip however many servers it reaches. HBA is the
// planner's M = 1 (every server a group of one). Message counts come
// straight from the servers' frame counters, which is what Fig. 15 plots.
//
// The read path is not here: lookups, leases and verifies run on the
// concurrent Router (rpc/router.hpp), which drives the L1-L4 cascade from
// an immutable Topology snapshot and a per-peer connection
// pool without taking the orchestrator's lock. The orchestrator republishes
// the snapshot after every topology change, and fails over the peers the
// Router reports as suspected.
//
// Thread safety: orchestrator state (server instances, the group plan, the
// reconfiguration guard) is GHBA_GUARDED_BY(mu_); mutating entry points
// take the lock and everything below them carries GHBA_REQUIRES(mu_), so
// Clang's -Wthread-safety proves no path touches the topology unlocked —
// including the automatic fail-over path that replaces plan_. Read-path
// entry points take no orchestrator lock unless a suspected peer has to be
// failed over, which happens after the Router released everything.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "core/adaptivity.hpp"
#include "core/config.hpp"
#include "core/group_plan.hpp"
#include "core/metrics.hpp"
#include "mds/metadata.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/health.hpp"
#include "rpc/protocol.hpp"
#include "rpc/router.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "rpc/wire_txn_transport.hpp"
#include "txn/txn_driver.hpp"

namespace ghba {

/// Replica topology the prototype runs. Both run the same group planner;
/// they differ in M and in whether lookups multicast within a group (L3).
enum class ProtoScheme {
  kGhba,  ///< groups of <= M; theta replicas per server
  kHba,   ///< M = 1: every server holds every other server's replica
};

/// A client cache's mailbox: Unlink and Rename post the paths they changed
/// once the ack or commit is back, with no frame on the wire, and the
/// owner drains them (TakeRevoked). `pending` spares an idle owner the lock.
struct CacheInbox {
  std::atomic<bool> pending{false};
};

class PrototypeCluster {
 public:
  PrototypeCluster(ClusterConfig config, ProtoScheme scheme);
  ~PrototypeCluster();

  PrototypeCluster(const PrototypeCluster&) = delete;
  PrototypeCluster& operator=(const PrototypeCluster&) = delete;

  /// Spawn all servers and install the (empty) replica topology.
  Status Start();
  void Stop();

  /// Attach a deterministic fault injector. Call before Start() so server
  /// event loops honour injected stalls (servers read the pointer from
  /// their loop thread); client-side connections pick it up lazily at any
  /// time. Pass nullptr to detach from the client side.
  void set_fault_injector(FaultInjector* injector);

  /// Client-visible failure accounting (suspicion / confirmed deaths).
  const PeerHealthTracker& health() const { return health_; }

  /// Client-side metrics (per-level outcomes, lookup latency, rpc.*
  /// failure counters). Internally synchronized; readable any time.
  const ClusterMetrics& metrics() const { return metrics_; }

  /// Point-in-time export of the client registry, with the rpc.* counters
  /// refreshed from the health tracker first.
  MetricsSnapshot ClientSnapshot();

  /// Flush in-flight one-way frames (kReportOutcome / kTouchLru): a kPing
  /// round-trip on every idle pooled connection. Each connection is FIFO on
  /// the server side, so once the ping answers, every frame queued before
  /// it has been handled. Call before polling server stats that must include
  /// already-issued lookups. A server whose ping fails and that the
  /// heart-beat confirms dead is reported down in `report`, not as an
  /// error; every other live server that drained is listed as drained.
  Status Quiesce(QuiesceReport* report = nullptr);

  /// Loopback ports of the live servers, in MdsId order (ghba_stats polls
  /// these over independent connections).
  std::vector<std::uint16_t> ServerPorts() const;

  /// One server's full stats snapshot via the kStatsSnapshot RPC.
  Result<StatsSnapshotResp> FetchStats(MdsId id);

  std::size_t NumServers() const;
  std::size_t NumGroups() const;

  /// Create a file on a uniformly random server.
  Status Insert(const std::string& path, const FileMetadata& metadata);

  /// Create many files, each on a uniformly random server (same placement
  /// distribution as Insert). Per-server traffic rides kBatch frames —
  /// many inserts, one CRC, one round-trip. First failure aborts.
  Status InsertBatch(
      const std::vector<std::pair<std::string, FileMetadata>>& files);

  /// Remove a file (the lookup protocol locates it first), then revoke the
  /// path from every registered cache.
  Status Unlink(const std::string& path);

  /// Atomically rename `src` to `dst` via WAL-journaled two-phase commit
  /// (v5). The lookup protocol locates src; src's home coordinates and
  /// journals every transition. dst's home comes from a deterministic hash
  /// placement over the live servers, so a rename usually crosses MDSs.
  /// Ok means the commit decision is durable on the coordinator: a crash
  /// at any later boundary rolls the rename forward at recovery — never a
  /// half-applied pair. NotFound when src is absent, AlreadyExists when
  /// dst is taken; both abort cleanly. Whatever the outcome, both names
  /// are revoked from every registered cache before this returns.
  Status Rename(const std::string& src, const std::string& dst);

  /// Atomically create `path` (same hash placement) with `metadata`,
  /// failing with AlreadyExists when present. A single-participant
  /// transaction sharing Rename's journal trail and crash matrix: the
  /// existence check and the insert are one prepared op under the intent
  /// lock, so two racing creators cannot both win.
  Status CreateExclusive(const std::string& path,
                         const FileMetadata& metadata);

  /// Resolve every in-doubt prepared op on `id` against its coordinator's
  /// durable decision table: committed ops roll forward, aborted/unknown
  /// roll back (presumed abort), an undecided txn is force-aborted first.
  /// Returns the number of ops still in doubt (coordinator down or
  /// unreachable: only its journal can settle them); 0 means the server
  /// is clean. RestartServer runs this automatically, on the restarted
  /// server's own in-doubt prepares and, after a durable recovery, first
  /// on every other server, whose ops it may coordinate.
  Result<std::uint64_t> ResolveInDoubt(MdsId id);

  /// Four-level lookup driven from the client, on the Router: L3 and L4
  /// are one multicast each, and no orchestrator lock is taken. With
  /// `lease`, the home leases its answer in the same reply and the outcome
  /// carries the TTL (0 = not leased).
  Result<LookupOutcome> Lookup(const std::string& path, bool lease = false);

  /// Fetch every server's current filter (one kGetFilter each) and refresh
  /// its replicas on their holders: one kBatch of installs per holder.
  Status PublishAll();

  /// What a topology change did: the server involved and the frames the
  /// operation exchanged (Fig. 15's cost axis). Returned by value — the
  /// client-path API carries results in Result<T>, never out-params.
  struct ReconfigOutcome {
    MdsId id = kInvalidMds;
    std::uint64_t messages = 0;
  };

  /// Add one server (Fig. 15's experiment): it enters the smallest group
  /// with room, splitting a random full group first when there is none
  /// (at M = 1 it opens a group of its own). Its co-members hand it
  /// replicas down to the floor of the new average, and its filter goes to
  /// one holder in each other group.
  Result<ReconfigOutcome> AddServer();

  /// Gracefully decommission a server: its replicas move to group peers,
  /// every survivor drops its filter, groups that now fit within M merge,
  /// and its files drain to the members of its own group still running
  /// after the executor (every running survivor when there is none). Only
  /// the drain receivers' replicas are refreshed; there is
  /// no cluster-wide PublishAll. If the export fails on a running leaver,
  /// the leave is undone as a join of the same id and returns the error.
  Result<ReconfigOutcome> RemoveServer(MdsId id);

  /// Crash a server (no drain — its files are lost) and run fail-over:
  /// survivors drop its filters and rebuild group coverage. Exercises the
  /// heart-beat path of Section 4.5 over real sockets.
  Status KillServer(MdsId id);

  /// Crash a server WITHOUT telling the orchestrator: the event loop stops
  /// but all cluster bookkeeping still believes the server is alive, as
  /// after a real machine failure. Detection and fail-over then happen
  /// automatically through the health tracker (failed calls -> suspected
  /// -> kPing confirmation -> FailOver), with no manual KillServer.
  Status CrashServer(MdsId id);

  /// Restart a dead (killed or crashed) server in place. With
  /// config.storage.data_dir set, the new incarnation recovers its durable
  /// state (checkpoint + WAL replay) before rejoining; the returned
  /// RecoveryInfoResp is the peer's own account of what it brought back.
  /// Replicas are memory-only: the new incarnation starts with an empty
  /// segment array, re-enters a group and receives exactly the replicas
  /// its holder map assigns (the join's light-weight migration); no other
  /// replica in the cluster is refreshed. It then serves L4 again. A
  /// crashed-but-undetected server is failed over first. In-doubt ops are
  /// resolved last (see ResolveInDoubt); the returned txn_in_doubt is the
  /// restarted server's count after that pass.
  Result<RecoveryInfoResp> RestartServer(MdsId id);

  /// Move the replica of `owner` held inside `to`'s group onto `to`: the
  /// one-move diff GroupPlan::PlanMove, run by the executor every other
  /// reconfiguration uses. It copies the old holder's bytes
  /// (kReplicaFetch), installs them on `to`, publishes, then drops the old
  /// copy: three frames. An old holder that cannot hand its copy over
  /// (down, or it lacks it) is stood in for by the owner's own filter
  /// (kGetFilter). The holder map is adopted first, so a crash at
  /// any of the executor's crash points, followed by a restart, lands on
  /// the post-migration placement.
  Status MigrateReplica(MdsId owner, MdsId to);

  /// Split the fullest group in two (tail half forms a new group, both
  /// halves re-cover every outsider) and bump the routing epoch. The
  /// adaptivity loop's kSplitGroup action.
  Status SplitLargestGroup();

  /// One tick of the online adaptivity loop: sample the live signals
  /// (alive servers, group shapes, measured hit ratios and latencies,
  /// summed lookup_state_bytes, peer health), ask `controller` for a
  /// decision, and apply it (AddServer / RemoveServer / SplitLargestGroup)
  /// while traffic keeps flowing. Returns the decision taken; applying it
  /// best-effort — an action that fails leaves the decision's reason as
  /// the diagnostic and the next tick retries.
  Result<AdaptiveDecision> AdaptivityTick(AdaptivityController& controller);

  /// Routing epoch of the published topology snapshot: bumped by every
  /// topology change, strictly increasing for the life of this
  /// orchestrator. One atomic load.
  std::uint64_t RoutingEpoch() const { return router_.Epoch(); }

  /// Members of `id`'s group (id included), from the orchestrator's own
  /// topology. Unavailable when `id` is in no group.
  Result<std::vector<MdsId>> MembershipOf(MdsId id) const;

  /// Orchestrator-side placement: which member of `group_member`'s group
  /// holds the replica of `owner`?
  Result<MdsId> HolderOf(MdsId group_member, MdsId owner) const;

  /// Server-side truth: does `holder`'s segment array contain a replica of
  /// `owner` right now (kReplicaFetch probe)?
  Result<bool> HoldsReplica(MdsId holder, MdsId owner);

  /// Diagnostic: one server's current local filter, flattened (the crash
  /// tests compare pre-crash and post-recovery bits for identity).
  Result<BloomFilter> FilterOf(MdsId id);

  /// Live server ids.
  std::vector<MdsId> AliveServers() const;

  /// Diagnostic: exact store membership of `path` on one server.
  Result<bool> VerifyOn(MdsId id, const std::string& path);

  /// Ask `home` for a lookup lease on `path` (kLeaseGrant). `held` is the
  /// exact membership verdict; a TTL > 0 is a lease, and "not held" means
  /// "do not cache", never a negative for the cluster.
  Result<LeaseGrantResp> RequestLease(MdsId home, const std::string& path);

  /// Revoke `path` from every registered cache, in-process; always Ok.
  Status InvalidatePath(const std::string& path);

  /// Attach a client cache: every revocation is posted to `inbox` until
  /// DeregisterCache, which must come before the inbox dies.
  void RegisterCache(CacheInbox* inbox);
  void DeregisterCache(CacheInbox* inbox);
  /// The paths revoked from registered `inbox` since the last call; clears
  /// its `pending` flag.
  std::vector<std::string> TakeRevoked(CacheInbox* inbox);

  /// Flash-crowd response: install `owner`'s filter on every live group
  /// member that is not already its designated holder, so hot lookups
  /// resolve at L2 on any entry server instead of funnelling through one
  /// holder per group: one kGetFilter, then one scatter of kBatch frames,
  /// one install per receiving member. The extra copies are cache-grade:
  /// PublishAll refreshes only designated holders, so a stale extra costs
  /// a false route that kVerify absorbs, never a wrong answer. Returns the
  /// number of copies installed.
  Result<std::uint32_t> ReplicateHotEntry(MdsId owner);

  /// Total frames received across all servers (monotone counter).
  std::uint64_t TotalFramesIn() const;

 private:
  Status StartServer(MdsId id) GHBA_REQUIRES(mu_);
  /// Router::Call to a server this orchestrator knows, then fail-over for
  /// any peer the failure made suspected (unless a reconfiguration is
  /// already underway, see in_failover_).
  Result<std::vector<std::uint8_t>> Call(MdsId id,
                                         const std::vector<std::uint8_t>& req)
      GHBA_REQUIRES(mu_);
  /// Loopback port of live server `id`, 0 when down.
  std::uint16_t PortLocked(MdsId id) const GHBA_REQUIRES(mu_);
  /// Publish the current topology to the Router under the current epoch.
  void PublishTopologyLocked() GHBA_REQUIRES(mu_);
  /// End of every topology change: bump the routing epoch (invalidating
  /// every client cache entry stamped with an older one) and publish.
  void BumpEpochLocked() GHBA_REQUIRES(mu_);

  /// Health pipeline for suspected peers: confirm with kPing heart-beats
  /// and fail over the confirmed dead. The Locked form serves orchestrator
  /// calls; the unlocked form serves the Router path, pinging with nothing
  /// held and skipping a suspect whose incarnation is already gone.
  void NoteSuspectsLocked(const Suspects& suspects) GHBA_REQUIRES(mu_);
  void FailOverSuspects(const Suspects& suspects) GHBA_EXCLUDES(mu_);
  /// MarkDead + FailOver for a peer the heart-beat found dead.
  void FailOverConfirmedLocked(MdsId id) GHBA_REQUIRES(mu_);
  /// Section 4.5 fail-over: stop what is left of the server, survivors
  /// drop its filters, groups rebuild coverage. Shared by KillServer and
  /// the automatic detection path.
  Status FailOver(MdsId id) GHBA_REQUIRES(mu_);

  /// The current local filter of each of `owners`, in order, fetched in one
  /// Router::Scatter of kGetFilter frames. Any failed fetch fails the call.
  Result<std::vector<BloomFilter>> FetchFilters(
      const std::vector<MdsId>& owners) GHBA_REQUIRES(mu_);
  Result<BloomFilter> FetchFilter(MdsId owner) GHBA_REQUIRES(mu_);

  /// Every live server's port as this lock sees them: a joining server is
  /// reached before the topology that lists it is published.
  Topology PortsLocked() const GHBA_REQUIRES(mu_);
  /// Requests per server, packed into kBatch frames (at most
  /// kMaxBatchFrames sub-frames each, one CRC per frame). Every request
  /// must be of a Batchable type (its kMsgTable row).
  using Batches = std::map<MdsId, std::vector<std::vector<std::uint8_t>>>;
  /// Send every server's requests in rounds: each round is one
  /// Router::Scatter carrying every server's next kBatch window, so the
  /// servers work in parallel. A server whose window failed is sent no
  /// more; the others finish. The first failure (in server order) is
  /// returned. With `out`, each server's sub-responses are appended to
  /// its entry there, in request order. With `stage`, each round ends at
  /// the crash points of that executor stage (CrashPointsLocked).
  Status SendBatchesLocked(const Batches& batches, Batches* out = nullptr,
                           const char* stage = nullptr) GHBA_REQUIRES(mu_);
  /// Adopt `step.plan`, then execute its diff as batched frames (see the
  /// file comment): fetch, install, publish (BumpEpochLocked), drop. It
  /// publishes whatever the fetches and installs returned; a failed fetch
  /// or install fails it and sends no drops; drops are advisory. A crash
  /// point that fired makes it Unavailable, naming the point.
  Status ApplyStepLocked(PlanStep step) GHBA_REQUIRES(mu_);
  using Slot = std::pair<MdsId, MdsId>;  // holder, owner
  /// Each slot to install, with where its bytes come from: kInvalidMds for
  /// the owner's own filter, else the old holder a move copies.
  using Installs = std::map<Slot, MdsId>;
  /// The fetch and install stages of ApplyStepLocked.
  Status InstallLocked(const Installs& installs) GHBA_REQUIRES(mu_);
  /// The executor's crash points: after a scatter round of `stage` (fetch,
  /// install or drop), each armed reconfig.<stage>.<id> of a server that
  /// answered in it powers that server off and is recorded in
  /// reconfig_crash_. The executor then carries on as after a real power
  /// loss.
  void CrashPointsLocked(const char* stage, const std::vector<MdsId>& answered)
      GHBA_REQUIRES(mu_);
  /// Install the current filter of each of `owners` on its holders, one
  /// batch per holder.
  Status RefreshLocked(const std::vector<MdsId>& owners) GHBA_REQUIRES(mu_);
  /// A leave's drain: kExportFiles from `id`, its files re-inserted on
  /// `receivers` round-robin as batched writes. `*exported` turns true
  /// once the export's reply decoded: from then on `id` holds no file.
  /// With no receiver nothing is exported.
  Status DrainLocked(MdsId id, const std::vector<MdsId>& receivers,
                     bool* exported) GHBA_REQUIRES(mu_);
  /// Power loss at a crash point: stop `victim`'s event loop and drop its
  /// pooled connections, keeping every piece of orchestrator bookkeeping
  /// (as CrashServer does); detection happens via failed calls. The
  /// caller's test restarts the victim and asserts where recovery landed.
  void PowerOffLocked(MdsId victim) GHBA_REQUIRES(mu_);

  /// TxnDriver's transport (defined in the .cpp): the one wire transport
  /// (WireTxnTransport) over Call(), taking mu_ for each round trip, so
  /// the driver runs unlocked between messages — concurrent cluster
  /// traffic interleaves with a transaction exactly as it would against
  /// real daemons. Only the insert prepare is its own: it rides the exact
  /// check's scatter (Router::PrepareExact).
  struct TxnBridge;

  /// After-step hook body: consume txn.<phase>[.<k>] (crash the server
  /// that just processed message k of that phase, bookkeeping kept) and
  /// txnhalt.<phase>[.<k>] (halt the driver — the client dies at that
  /// boundary) crash points armed on the injector. The driver numbers k.
  /// Returns false to halt.
  bool TxnStepLocked(TxnPhase phase, std::uint32_t k, MdsId target)
      GHBA_REQUIRES(mu_);
  /// Next client-side transaction id. Lazily seeded from rng_ so a fresh
  /// orchestrator over an old data_dir cannot collide with txn ids a
  /// durable coordinator already journaled (ids must be unique per
  /// coordinator table, which survives restarts).
  std::uint64_t NextTxnIdLocked() GHBA_REQUIRES(mu_);
  /// Locked body of RestartServer (everything up to the rejoin); the
  /// public wrapper then resolves in-doubt prepares with mu_ released
  /// between messages, as every txn drive runs.
  Result<RecoveryInfoResp> RestartServerLocked(MdsId id) GHBA_REQUIRES(mu_);

  /// Router lookup issued while holding mu_ (Unlink and Rename locate the
  /// path they are about to move under the lock that serializes
  /// mutations). The full cascade; it teaches no L1 hint.
  Result<LookupOutcome> LookupLocked(const std::string& path)
      GHBA_REQUIRES(mu_);
  /// Body of Rename up to the commit; Rename revokes after it returns.
  Status RenameUnrevoked(const std::string& src, const std::string& dst);
  /// Post `path` to every registered cache inbox.
  void Revoke(const std::string& path) GHBA_EXCLUDES(caches_mu_);
  // Locked bodies of the public entry points that other operations reuse.
  std::vector<MdsId> AliveServersLocked() const GHBA_REQUIRES(mu_);
  std::uint64_t TotalFramesInLocked() const GHBA_REQUIRES(mu_);
  void StopLocked() GHBA_REQUIRES(mu_);

  const ClusterConfig config_;
  const ProtoScheme scheme_;

  /// Serializes every mutation and topology change. Lookups never take it:
  /// they run on router_ against the published snapshot. Rank kCluster:
  /// Start/Stop/RestartServer reach directly into server internals, and
  /// drains take the Router's drain gate, while holding it.
  mutable Mutex mu_{LockRank::kCluster};
  Rng rng_ GHBA_GUARDED_BY(mu_);
  bool started_ GHBA_GUARDED_BY(mu_) = false;

  // index = MdsId
  std::vector<std::unique_ptr<MdsServer>> servers_ GHBA_GUARDED_BY(mu_);
  /// Groups and holder maps: the orchestrator's truth, adopted before its
  /// diff is executed.
  GroupPlan plan_ GHBA_GUARDED_BY(mu_);
  /// Routing epoch, held here and nowhere else. Strictly increasing for
  /// the life of this orchestrator, which is also the life of every client
  /// cache stamped with it, so it needs no durable copy.
  std::uint64_t routing_epoch_ GHBA_GUARDED_BY(mu_) = 0;
  /// Txn id allocator; 0 means "not yet seeded" (NextTxnIdLocked draws a
  /// random base — txn id 0 itself is reserved by the wire codecs).
  std::uint64_t next_txn_id_ GHBA_GUARDED_BY(mu_) = 0;

  PeerHealthTracker health_;  // internally synchronized
  /// Client-side accounting. Internally synchronized (atomic counters,
  /// striped histograms): the Router's lookups write it concurrently.
  ClusterMetrics metrics_;
  // rpc.* mirrors of health_.TotalCounts(), refreshed by ClientSnapshot().
  MetricsRegistry::Counter rpc_retries_;
  MetricsRegistry::Counter rpc_timeouts_;
  MetricsRegistry::Counter rpc_failures_;
  MetricsRegistry::Counter rpc_suspected_;
  MetricsRegistry::Counter rpc_failovers_;
  /// Handed to servers at start; the Router keeps its own copy for
  /// client-side connections.
  FaultInjector* injector_ GHBA_GUARDED_BY(mu_) = nullptr;
  /// Reconfiguration guard against recursive fail-over: the repair traffic
  /// itself may hit slow peers, which must only be accounted, not chased.
  bool in_failover_ GHBA_GUARDED_BY(mu_) = false;
  /// The first crash point that fired in the running ApplyStepLocked;
  /// empty when none did.
  std::string reconfig_crash_ GHBA_GUARDED_BY(mu_);

  /// The concurrent read path and the transport under every call.
  Router router_;

  /// Registered client caches and the paths revoked from each since its
  /// owner last drained them. A leaf: nothing is acquired under it.
  Mutex caches_mu_{LockRank::kCacheRevoke};
  std::unordered_map<CacheInbox*, std::vector<std::string>> caches_
      GHBA_GUARDED_BY(caches_mu_);
};

}  // namespace ghba

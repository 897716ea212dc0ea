// Orchestrator of the loopback prototype (paper Section 5).
//
// Spawns one MdsServer per MDS, forms groups, installs Bloom-filter
// replicas over the wire, and runs every mutation: inserts, unlinks,
// renames, joins, leaves, crashes, restarts, migrations and splits. Message
// counts come straight from the servers' frame counters, which is what
// Fig. 15 plots.
//
// The read path is not here: lookups, leases, verifies and invalidations
// run on the concurrent Router (rpc/router.hpp), which drives the L1-L4
// cascade from an immutable Topology snapshot and a per-peer connection
// pool without taking the orchestrator's lock. The orchestrator republishes
// the snapshot after every topology change, and fails over the peers the
// Router reports as suspected.
//
// Thread safety: orchestrator state (server instances, group topology, the
// reconfiguration guard) is GHBA_GUARDED_BY(mu_); mutating entry points
// take the lock and everything below them carries GHBA_REQUIRES(mu_), so
// Clang's -Wthread-safety proves no path touches the topology unlocked —
// including the automatic fail-over path that rewrites groups_. Read-path
// entry points take no orchestrator lock unless a suspected peer has to be
// failed over, which happens after the Router released everything.
#pragma once

#include <array>
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
#include "core/metrics.hpp"
#include "mds/metadata.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/health.hpp"
#include "rpc/protocol.hpp"
#include "rpc/router.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "txn/txn_driver.hpp"

namespace ghba {

/// Replica topology the prototype runs.
enum class ProtoScheme {
  kGhba,  ///< groups of <= M; theta replicas per server
  kHba,   ///< every server holds every other server's replica
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
  /// already-issued lookups.
  Status Quiesce();

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

  /// Remove a file (the lookup protocol locates it first).
  Status Unlink(const std::string& path);

  /// Atomically rename `src` to `dst` via WAL-journaled two-phase commit
  /// (v5). The lookup protocol locates src; src's home coordinates and
  /// journals every transition. dst's home comes from a deterministic hash
  /// placement over the live servers, so a rename usually crosses MDSs.
  /// Ok means the commit decision is durable on the coordinator: a crash
  /// at any later boundary rolls the rename forward at recovery — never a
  /// half-applied pair. NotFound when src is absent, AlreadyExists when
  /// dst is taken; both abort cleanly.
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
  /// Returns the number of ops still in doubt (coordinator unreachable
  /// and not confirmed dead); 0 means the server is clean. RestartServer
  /// runs this automatically when recovery reports in-doubt prepares.
  Result<std::uint64_t> ResolveInDoubt(MdsId id);

  /// Four-level lookup driven from the client, on the Router: L3 and L4
  /// are one multicast each, and no orchestrator lock is taken. With
  /// `lease`, the home leases its answer in the same reply and the outcome
  /// carries the TTL (0 = not leased).
  Result<LookupOutcome> Lookup(const std::string& path, bool lease = false);

  /// Fetch every server's current filter and refresh its replicas.
  Status PublishAll();

  /// What a topology change did: the server involved and the frames the
  /// operation exchanged (Fig. 15's cost axis). Returned by value — the
  /// client-path API carries results in Result<T>, never out-params.
  struct ReconfigOutcome {
    MdsId id = kInvalidMds;
    std::uint64_t messages = 0;
  };

  /// Add one server (Fig. 15's experiment).
  Result<ReconfigOutcome> AddServer();

  /// Gracefully decommission a server: its replicas move to group peers,
  /// its files drain to the survivors, every group drops its filter.
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
  /// The rejoined server re-enters a group, receives fresh replicas and
  /// serves L4 again. A crashed-but-undetected server is failed over first.
  Result<RecoveryInfoResp> RestartServer(MdsId id);

  /// Move the replica of `owner` held inside `to`'s group onto `to`, as a
  /// crash-safe three-phase handoff. Each phase's durable effect is
  /// journaled through the involved server's WAL before the next phase
  /// starts:
  ///   1. prepare — snapshot the owner's current filter, install it
  ///      (journaled) on `to`; the old holder still routes.
  ///   2. flip — rewrite the holder map and bump the routing epoch. This
  ///      is the commit point: the orchestrator's map is what routing and
  ///      restart recovery follow.
  ///   3. retire — the old holder drops (journals) its copy.
  /// Between 1 and 3 both holders answer probes for the owner — the
  /// dual-epoch window: lookups racing the flip probe a superset of
  /// placements, so the window costs duplicate messages, never a wrong
  /// miss. A crash at any boundary (see FaultInjector::ArmMigrationCrash)
  /// recovers to exactly the pre-flip or post-flip placement of this
  /// replica, never a half-migrated view.
  Status MigrateReplica(MdsId owner, MdsId to);

  /// Split the fullest group in two (tail half forms a new group) and bump
  /// the routing epoch. The adaptivity loop's kSplitGroup action.
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

  /// Multicast kInvalidate for `path` to every live server: each drops any
  /// lease and L1 entry it holds for the path. Best-effort per peer — an
  /// unreachable server's leases die by TTL instead — but a peer that
  /// answers with an error fails the call, so callers can assert coherence.
  Status InvalidatePath(const std::string& path);

  /// Flash-crowd response: install `owner`'s filter on every live group
  /// member that is not already its designated holder, so hot lookups
  /// resolve at L2 on any entry server instead of funnelling through one
  /// holder per group (reuses the MigrateReplica install path). The extra
  /// copies are cache-grade: PublishAll refreshes only designated holders,
  /// so a stale extra costs a false route that kVerify absorbs, never a
  /// wrong answer. Returns the number of copies installed.
  Result<std::uint32_t> ReplicateHotEntry(MdsId owner);

  /// Total frames received across all servers (monotone counter).
  std::uint64_t TotalFramesIn() const;

 private:
  struct GroupInfo {
    std::vector<MdsId> members;
    std::unordered_map<MdsId, MdsId> holder;  // owner -> member holding it
  };

  Status StartServer(MdsId id) GHBA_REQUIRES(mu_);
  /// Wire a freshly started server `nid` into the replica topology: group
  /// membership, replica exchange/migration, coverage. Shared by AddServer
  /// (brand-new id) and RestartServer (rejoining id). Callers hold the
  /// in_failover_ flag (this walks groups_ across Calls).
  Status JoinTopologyLocked(MdsId nid) GHBA_REQUIRES(mu_);
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

  /// Issue `reqs` against one server and return the responses in request
  /// order. Requests pack into kBatch frames (at most kMaxBatchFrames
  /// sub-frames each, one CRC per frame). Every req must be a
  /// BatchableType request.
  Result<std::vector<std::vector<std::uint8_t>>> CallBatch(
      MdsId id, const std::vector<std::vector<std::uint8_t>>& reqs)
      GHBA_REQUIRES(mu_);

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

  Result<BloomFilter> FetchFilter(MdsId owner) GHBA_REQUIRES(mu_);
  Status InstallReplica(MdsId holder, MdsId owner, const BloomFilter& filter)
      GHBA_REQUIRES(mu_);

  /// Member of `g` holding the fewest replicas.
  MdsId LightestMember(const GroupInfo& g) const;
  /// Group index with room, or SIZE_MAX.
  std::size_t GroupWithRoom() const GHBA_REQUIRES(mu_);
  Status EnsureCoverage(GroupInfo& g) GHBA_REQUIRES(mu_);

  /// Split group `victim` in two (tail half forms a new group), rebuild
  /// coverage for both halves and bump the epoch. Callers hold the
  /// in_failover_ flag.
  Status SplitGroupLocked(std::size_t victim) GHBA_REQUIRES(mu_);

  /// Simulated power loss at a migration phase boundary: stop `victim`'s
  /// event loop abruptly, keep every piece of orchestrator bookkeeping
  /// (as CrashServer does), and report the aborted migration. The caller's
  /// test restarts the victim and asserts where recovery landed.
  Status CrashMigrationLocked(MdsId victim, const char* phase)
      GHBA_REQUIRES(mu_);

  /// TxnDriver's transport over Call() (defined in the .cpp). Each method
  /// takes mu_ itself, so the driver runs unlocked between messages —
  /// concurrent cluster traffic interleaves with a transaction exactly as
  /// it would against real daemons.
  struct TxnBridge;

  // Locked bodies of the TxnBridge — one per v5 protocol message, all
  // plain Call() round-trips with the envelope idiom.
  Status TxnBeginAt(MdsId coordinator, std::uint64_t txn_id,
                    const std::vector<MdsId>& participants)
      GHBA_REQUIRES(mu_);
  Result<std::optional<FileMetadata>> TxnPrepareAt(MdsId participant,
                                                   const TxnPendingOp& op)
      GHBA_REQUIRES(mu_);
  Status TxnDecideAt(MdsId coordinator, std::uint64_t txn_id, bool commit)
      GHBA_REQUIRES(mu_);
  Status TxnFinishAt(MsgType type, MdsId participant, std::uint64_t txn_id,
                     const std::string& path) GHBA_REQUIRES(mu_);
  Result<std::vector<TxnPendingOp>> TxnListAt(MdsId server)
      GHBA_REQUIRES(mu_);
  Result<TxnResolution> TxnQueryDecisionAt(MdsId coordinator,
                                           std::uint64_t txn_id)
      GHBA_REQUIRES(mu_);
  /// After-step hook body: consume txn.<phase>[.<k>] (crash the server
  /// that just processed message k of that phase, bookkeeping kept) and
  /// txnhalt.<phase>[.<k>] (halt the driver — the client dies at that
  /// boundary) crash points armed on the injector. Returns false to halt.
  bool TxnStepLocked(TxnPhase phase, MdsId target) GHBA_REQUIRES(mu_);
  /// Power loss at a txn phase boundary: same semantics as
  /// CrashMigrationLocked — the event loop stops, every piece of
  /// orchestrator bookkeeping stays, detection happens via failed calls.
  void CrashTxnLocked(MdsId victim) GHBA_REQUIRES(mu_);
  /// Next client-side transaction id. Lazily seeded from rng_ so a fresh
  /// orchestrator over an old data_dir cannot collide with txn ids a
  /// durable coordinator already journaled (ids must be unique per
  /// coordinator table, which survives restarts).
  std::uint64_t NextTxnIdLocked() GHBA_REQUIRES(mu_);
  /// Locked body of RestartServer (everything up to the rejoin); the
  /// public wrapper then resolves in-doubt prepares with mu_ released
  /// between messages, as every txn drive runs.
  Result<RecoveryInfoResp> RestartServerLocked(MdsId id) GHBA_REQUIRES(mu_);

  /// Router lookup issued while holding mu_ (Unlink and the txn preludes
  /// locate their paths under the lock that serializes mutations).
  Result<LookupOutcome> LookupLocked(const std::string& path)
      GHBA_REQUIRES(mu_);
  // Locked bodies of the public entry points that other operations reuse.
  Status PublishAllLocked() GHBA_REQUIRES(mu_);
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
  std::vector<GroupInfo> groups_ GHBA_GUARDED_BY(mu_);  // G-HBA only
  std::unordered_map<MdsId, std::size_t> group_of_ GHBA_GUARDED_BY(mu_);
  /// Routing epoch, held here and nowhere else. Strictly increasing for
  /// the life of this orchestrator, which is also the life of every client
  /// cache stamped with it, so it needs no durable copy.
  std::uint64_t routing_epoch_ GHBA_GUARDED_BY(mu_) = 0;
  /// Txn id allocator; 0 means "not yet seeded" (NextTxnIdLocked draws a
  /// random base — txn id 0 itself is reserved by the wire codecs).
  std::uint64_t next_txn_id_ GHBA_GUARDED_BY(mu_) = 0;
  /// Per-drive message counters, one per TxnPhase: position k within a
  /// phase names the crash point txn.<phase>.<k>. Reset at drive start.
  std::array<std::uint32_t, 5> txn_step_seq_ GHBA_GUARDED_BY(mu_){};

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

  /// The concurrent read path and the transport under every call.
  Router router_;
};

}  // namespace ghba

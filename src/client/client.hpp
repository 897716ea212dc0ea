// ghba::Client — the client-side front tier over the loopback prototype.
//
// PrototypeCluster's Router is the query *coordinator* (it drives the
// four-level cascade over the wire); Client is what an application links
// against. It
// adds the pieces a real file-system client needs in front of that
// cascade:
//
//   * a lease/epoch-invalidated lookup cache: every positive lookup may be
//     cached, but only under a lease its home granted inside the cascade
//     (protocol v6) and stamped with the routing epoch it was learned
//     under. An entry answers only while BOTH hold — the lease TTL has not
//     expired against the (injectable) clock AND the cluster's routing
//     epoch is unchanged. Any migration, join, leave or fail-over bumps
//     the epoch and thereby invalidates every older entry at once. The
//     cluster's Unlink and Rename revoke the paths they change from every
//     attached cache before they return, so no Client of one cluster
//     reads what a mutation through it removed; across processes the
//     lease TTL bounds staleness.
//   * a count-min-sketch hot-key detector over the lookup stream: when a
//     path's estimated frequency crosses ClientOptions::hot_threshold the
//     client asks the cluster to replicate the home server's filter to all
//     its group siblings (ReplicateHotEntry — the MIDAS-style response to
//     a flash crowd), once per (path, epoch).
//   * uniform Result<T> returns: no status+out-param pairs anywhere on the
//     client path.
//
// Thread safety: all facade state (cache, sketch, promotion memo) is
// GHBA_GUARDED_BY(mu_), rank kClient — strictly above kCluster, so a
// facade operation may call into the cluster but never the reverse: the
// cluster posts revocations to inbox_, which the client drains under mu_.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/count_min_sketch.hpp"
#include "common/lookup_outcome.hpp"
#include "common/sync.hpp"
#include "rpc/prototype_cluster.hpp"

namespace ghba {

/// Knobs for the client front tier. Defaults give a useful cache; set
/// `cache_enabled = false` for an A/B baseline (bench_hotspot runs both).
struct ClientOptions {
  /// Master switch for the lookup cache (leases are not even requested
  /// when off; the sketch still runs so hot detection is comparable).
  bool cache_enabled = true;

  /// Maximum cached entries; least-recently-used beyond that.
  std::size_t cache_capacity = 4096;

  /// Count-min sketch geometry for the client-side hot-key detector.
  std::uint32_t sketch_width = 1024;
  std::uint32_t sketch_depth = 4;

  /// Estimated per-path frequency at which a path counts as hot.
  std::uint32_t hot_threshold = 64;

  /// Replicate a hot path's home filter to its group siblings when the
  /// detector fires (once per path and routing epoch).
  bool hot_replication = true;

  /// Backoff before the single retry of a lookup the server shed with
  /// kRetryAfter.
  std::uint32_t retry_after_backoff_ms = 2;

  /// Millisecond clock used for lease expiry. Tests inject a fake to
  /// advance time without sleeping; default is the steady clock.
  std::function<std::uint64_t()> clock_ms;
};

class Client {
 public:
  /// Start a fresh cluster and attach a facade to it. The returned Client
  /// owns the cluster and stops it on destruction.
  static Result<std::unique_ptr<Client>> Open(ClusterConfig config,
                                              ProtoScheme scheme,
                                              ClientOptions options = {});

  /// Attach to an already-started cluster someone else owns (tests and
  /// benches share one cluster between cache-on and cache-off facades).
  /// The cluster must outlive the Client.
  static std::unique_ptr<Client> Attach(PrototypeCluster* cluster,
                                        ClientOptions options = {});

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Four-level lookup behind the cache. Paths the cluster revoked since
  /// the last call are dropped first. A cache hit returns immediately
  /// with `from_cache = true` and `served_level = 0` (the cascade never
  /// ran); a miss runs the cluster cascade, asking the home to lease its
  /// answer in the same reply. A lookup the server shed (kRetryAfter) is
  /// retried once after `retry_after_backoff_ms`.
  Result<LookupOutcome> Lookup(const std::string& path);

  /// Create a file on a uniformly random server.
  Status Insert(const std::string& path, const FileMetadata& metadata);

  /// Create many files; per-server traffic rides kBatch frames.
  Status InsertBatch(
      const std::vector<std::pair<std::string, FileMetadata>>& files);

  /// Remove a file. The cluster revokes the path from every attached
  /// cache before this returns.
  Status Unlink(const std::string& path);

  /// Atomically rename `src` to `dst` via WAL-journaled two-phase commit
  /// across the involved MDSs (protocol v5). The cluster revokes both
  /// names from every attached cache before this returns, whatever the
  /// outcome. Ok means the rename is durably committed — a crash anywhere
  /// after rolls it forward at recovery, never half-applies it.
  Status Rename(const std::string& src, const std::string& dst);

  /// Atomic create-if-absent through the same transaction machinery:
  /// the existence check and the insert are one prepared op under the
  /// server's intent lock, so two racing creators cannot both win.
  Status CreateExclusive(const std::string& path,
                         const FileMetadata& metadata);

  /// Cached entries right now (expired-but-unevicted entries count).
  std::size_t CacheSize() const;

  /// The underlying cluster, for orchestration (churn, migration, stats).
  PrototypeCluster& cluster() { return *cluster_; }

 private:
  Client(std::unique_ptr<PrototypeCluster> owned, PrototypeCluster* cluster,
         ClientOptions options);

  struct CacheEntry {
    MdsId home = kInvalidMds;
    std::uint64_t epoch = 0;      ///< routing epoch the lease was taken under
    std::uint64_t expiry_ms = 0;  ///< clock_ms() past which the lease is dead
    std::list<std::string>::iterator lru_pos;
  };

  std::uint64_t NowMs() const;

  /// Cache probe: returns true and fills `out` only for an entry that is
  /// both lease-fresh and epoch-current; evicts (and accounts) otherwise.
  bool CacheProbe(const std::string& path, std::uint64_t epoch,
                  std::uint64_t now, LookupOutcome* out) GHBA_REQUIRES(mu_);
  void CacheInsert(const std::string& path, MdsId home, std::uint64_t epoch,
                   std::uint64_t expiry_ms) GHBA_REQUIRES(mu_);
  void CacheErase(const std::string& path) GHBA_REQUIRES(mu_);
  /// Drop every path the cluster revoked since the last drain. Every
  /// facade operation calls it, so a write-only client holds no backlog.
  void DrainRevoked() GHBA_REQUIRES(mu_);

  /// Feed the sketch and fire hot replication on a threshold crossing.
  void NoteAccess(const std::string& path, MdsId home, std::uint64_t epoch)
      GHBA_REQUIRES(mu_);

  const ClientOptions options_;
  std::unique_ptr<PrototypeCluster> owned_;  ///< null when attached
  PrototypeCluster* const cluster_;
  /// Registered with cluster_ for the life of this Client.
  CacheInbox inbox_;

  /// Serializes facade state. Rank kClient: strictly above kCluster, so
  /// every operation may call into the cluster while holding it.
  mutable Mutex mu_{LockRank::kClient};
  std::unordered_map<std::string, CacheEntry> cache_ GHBA_GUARDED_BY(mu_);
  std::list<std::string> lru_ GHBA_GUARDED_BY(mu_);  ///< front = most recent
  CountMinSketch sketch_ GHBA_GUARDED_BY(mu_);
  /// Hot-replication memo: path -> routing epoch it was promoted under.
  /// An epoch bump re-arms the promotion (the topology changed).
  std::unordered_map<std::string, std::uint64_t> promoted_
      GHBA_GUARDED_BY(mu_);

  // cache.* counters, registered in the cluster's client registry so
  // ClientSnapshot() exports the front tier alongside the rpc.* series.
  MetricsRegistry::Counter cache_hits_;
  MetricsRegistry::Counter cache_misses_;
  MetricsRegistry::Counter cache_expired_;
  MetricsRegistry::Counter cache_stale_epoch_;
  MetricsRegistry::Counter cache_invalidations_;
  MetricsRegistry::Counter cache_hot_promotions_;
};

}  // namespace ghba

// Metrics collected during trace replay and reconfiguration.
//
// These are exactly the quantities the paper's evaluation plots: per-level
// hit counts (Fig. 13), operation latency (Figs. 8-10, 14), replica
// migrations (Fig. 11), update latency (Fig. 12) and message counts
// (Fig. 15).
//
// ClusterMetrics is a thin view over a MetricsRegistry: every field is a
// handle to a *named* counter or histogram, so `++metrics_.levels.l1` and
// the prototype's registry-side increments share one accounting path and
// one naming schema (metrics_names below). Snapshot() exports the whole
// registry — the same shape the kStatsSnapshot RPC serializes — and
// Reset() keeps its old semantics (all values zeroed, handles stay valid).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics_registry.hpp"

namespace ghba {

/// Canonical metric names shared by the simulator's ClusterMetrics, the
/// MdsServer registries and the ghba_stats renderer. Keep PROTOCOL.md's
/// kStatsSnapshot section in sync when adding names.
namespace metrics_names {
inline constexpr char kLookupsL1[] = "lookups.l1";
inline constexpr char kLookupsL2[] = "lookups.l2";
inline constexpr char kLookupsL3[] = "lookups.l3";
inline constexpr char kLookupsL4[] = "lookups.l4";
inline constexpr char kLookupsMiss[] = "lookups.miss";
inline constexpr char kMessagesTotal[] = "messages.total";
inline constexpr char kMessagesLookup[] = "messages.lookup";
inline constexpr char kMessagesUpdate[] = "messages.update";
inline constexpr char kMessagesReconfig[] = "messages.reconfig";
inline constexpr char kReplicasMigrated[] = "replicas.migrated";
inline constexpr char kFalseRoutes[] = "false_routes";
inline constexpr char kDiskProbes[] = "disk_probes";
inline constexpr char kPublishes[] = "publishes";
inline constexpr char kLatencyLookupMs[] = "latency.lookup_ms";
inline constexpr char kLatencyL1Ms[] = "latency.l1_ms";
inline constexpr char kLatencyL2Ms[] = "latency.l2_ms";
inline constexpr char kLatencyL3Ms[] = "latency.l3_ms";
inline constexpr char kLatencyL4Ms[] = "latency.l4_ms";
inline constexpr char kLatencyUpdateMs[] = "latency.update_ms";
// Client-side RPC failure handling (PeerHealthTracker::CumulativeCounts).
inline constexpr char kRpcRetries[] = "rpc.retries";
inline constexpr char kRpcTimeouts[] = "rpc.timeouts";
inline constexpr char kRpcFailures[] = "rpc.failures";
inline constexpr char kRpcSuspected[] = "rpc.suspected";
inline constexpr char kRpcFailovers[] = "rpc.failovers";
// Server-side request counts (per-MdsServer registries only).
inline constexpr char kServeLocalLookups[] = "serve.local_lookups";
inline constexpr char kServeGroupProbes[] = "serve.group_probes";
inline constexpr char kServeGlobalProbes[] = "serve.global_probes";
// kVerify and kLeaseGrant frames: both verify a path on its server.
inline constexpr char kServeVerifies[] = "serve.verifies";
// Requests the event thread answered itself on an idle shard, without a
// hand-off to the shard's worker.
inline constexpr char kServeInlineRequests[] = "serve.inline_requests";
// Durable storage engine (per-MdsServer registries, --data-dir mode only).
inline constexpr char kStorageWalAppends[] = "storage.wal_appends";
inline constexpr char kStorageWalFsyncs[] = "storage.wal_fsyncs";
inline constexpr char kStorageWalBytes[] = "storage.wal_bytes";
inline constexpr char kStorageCheckpoints[] = "storage.checkpoints";
inline constexpr char kStorageCheckpointDurationNs[] =
    "storage.checkpoint_duration_ns";
inline constexpr char kStorageRecoveryReplayRecords[] =
    "storage.recovery_replay_records";
inline constexpr char kStorageRecoveryTornTail[] =
    "storage.recovery_torn_tail";
inline constexpr char kStorageRecoveryFilterRebuilt[] =
    "storage.recovery_filter_rebuilt";
inline constexpr char kStorageRecoveryFilterMismatch[] =
    "storage.recovery_filter_mismatch";
// Front tier: server-side lease bookkeeping and hot-spot handling.
inline constexpr char kServeLeaseRequests[] = "serve.lease_requests";
inline constexpr char kServeLeaseGrants[] = "serve.lease_grants";
inline constexpr char kServeLeaseRefusals[] = "serve.lease_refusals";
inline constexpr char kServeInvalidations[] = "serve.invalidations";
inline constexpr char kServeLeaseSweeps[] = "serve.lease_sweeps";
inline constexpr char kServeLeasesExpired[] = "serve.leases_expired";
inline constexpr char kServeHotKeys[] = "serve.hot_keys";
inline constexpr char kServeShedRequests[] = "serve.shed_requests";
// Distributed transactions (2PC): server-side message counts.
inline constexpr char kServeTxnBegins[] = "serve.txn_begins";
inline constexpr char kServeTxnPrepares[] = "serve.txn_prepares";
inline constexpr char kServeTxnCommits[] = "serve.txn_commits";
inline constexpr char kServeTxnAborts[] = "serve.txn_aborts";
inline constexpr char kServeTxnResolves[] = "serve.txn_resolves";
// Front tier: client-side lookup cache (ghba::Client registries only).
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheExpiredLease[] = "cache.expired_lease";
inline constexpr char kCacheStaleEpoch[] = "cache.stale_epoch";
inline constexpr char kCacheInvalidations[] = "cache.invalidations";
inline constexpr char kCacheHotPromotions[] = "cache.hot_promotions";
}  // namespace metrics_names

/// Plain-value copy of the per-level counters, for frozen samples
/// (checkpoints, reports) that must not track the live registry.
struct QueryLevelValues {
  std::uint64_t l1 = 0;
  std::uint64_t l2 = 0;
  std::uint64_t l3 = 0;
  std::uint64_t l4 = 0;
  std::uint64_t miss = 0;

  std::uint64_t total() const { return l1 + l2 + l3 + l4 + miss; }

  double Fraction(std::uint64_t level_count) const {
    const auto t = total();
    return t ? static_cast<double>(level_count) / static_cast<double>(t) : 0.0;
  }
};

struct QueryLevelCounters {
  MetricsRegistry::Counter l1;  ///< served by the local LRU array
  MetricsRegistry::Counter l2;  ///< served by the local segment array
  MetricsRegistry::Counter l3;  ///< served by group multicast
  MetricsRegistry::Counter l4;  ///< served by (or concluded at) global mcast
  MetricsRegistry::Counter miss;  ///< file does not exist anywhere

  std::uint64_t total() const { return l1 + l2 + l3 + l4 + miss; }

  double Fraction(std::uint64_t level_count) const {
    const auto t = total();
    return t ? static_cast<double>(level_count) / static_cast<double>(t) : 0.0;
  }

  /// Frozen copy of the current values.
  QueryLevelValues Values() const { return {l1, l2, l3, l4, miss}; }
};

class ClusterMetrics {
  // Declared first: the handle members below are initialized from it, and
  // members initialize in declaration order.
  std::shared_ptr<MetricsRegistry> registry_;

 public:
  /// Owns a fresh registry (each simulated cluster accounts independently).
  ClusterMetrics() : ClusterMetrics(std::make_shared<MetricsRegistry>()) {}

  /// View over a shared registry (the prototype client shares its registry
  /// with the stats exporter).
  explicit ClusterMetrics(std::shared_ptr<MetricsRegistry> registry)
      : registry_(std::move(registry)),
        levels{registry_->counter(metrics_names::kLookupsL1),
               registry_->counter(metrics_names::kLookupsL2),
               registry_->counter(metrics_names::kLookupsL3),
               registry_->counter(metrics_names::kLookupsL4),
               registry_->counter(metrics_names::kLookupsMiss)},
        lookup_latency_ms(
            registry_->histogram(metrics_names::kLatencyLookupMs)),
        l1_latency_ms(registry_->histogram(metrics_names::kLatencyL1Ms)),
        l2_latency_ms(registry_->histogram(metrics_names::kLatencyL2Ms)),
        group_latency_ms(registry_->histogram(metrics_names::kLatencyL3Ms)),
        global_latency_ms(registry_->histogram(metrics_names::kLatencyL4Ms)),
        update_latency_ms(
            registry_->histogram(metrics_names::kLatencyUpdateMs)),
        messages(registry_->counter(metrics_names::kMessagesTotal)),
        lookup_messages(registry_->counter(metrics_names::kMessagesLookup)),
        update_messages(registry_->counter(metrics_names::kMessagesUpdate)),
        reconfig_messages(
            registry_->counter(metrics_names::kMessagesReconfig)),
        replicas_migrated(
            registry_->counter(metrics_names::kReplicasMigrated)),
        false_routes(registry_->counter(metrics_names::kFalseRoutes)),
        disk_probes(registry_->counter(metrics_names::kDiskProbes)),
        publishes(registry_->counter(metrics_names::kPublishes)) {}

  // Handles alias the registry; copying the view would silently share
  // counters between clusters, so forbid it.
  ClusterMetrics(const ClusterMetrics&) = delete;
  ClusterMetrics& operator=(const ClusterMetrics&) = delete;

  QueryLevelCounters levels;

  MetricsRegistry::LatencyHistogram lookup_latency_ms;
  MetricsRegistry::LatencyHistogram l1_latency_ms;  ///< resolved at L1
  MetricsRegistry::LatencyHistogram l2_latency_ms;  ///< resolved at L2
  MetricsRegistry::LatencyHistogram group_latency_ms;   ///< resolved at L3
  MetricsRegistry::LatencyHistogram global_latency_ms;  ///< resolved at L4
  MetricsRegistry::LatencyHistogram update_latency_ms;  ///< replica updates

  MetricsRegistry::Counter messages;         ///< network messages (all)
  MetricsRegistry::Counter lookup_messages;  ///< messages due to lookups
  MetricsRegistry::Counter update_messages;  ///< replica-update messages
  MetricsRegistry::Counter reconfig_messages;  ///< join/leave/split msgs
  MetricsRegistry::Counter replicas_migrated;  ///< replica moves (Fig. 11)
  MetricsRegistry::Counter false_routes;  ///< unique hits verified wrong
  MetricsRegistry::Counter disk_probes;   ///< filter probes from disk
  MetricsRegistry::Counter publishes;     ///< replica refresh rounds

  /// Zero every value; handles (and the registry) stay valid.
  void Reset() { registry_->Reset(); }

  /// Point-in-time export of every named metric.
  MetricsSnapshot Snapshot() const { return registry_->Snapshot(); }

  MetricsRegistry& registry() { return *registry_; }
  const std::shared_ptr<MetricsRegistry>& shared_registry() const {
    return registry_;
  }
};

}  // namespace ghba

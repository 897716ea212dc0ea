// Cluster-wide configuration shared by G-HBA and the baseline schemes.
#pragma once

#include <cstdint>

#include "bloom/lru_bloom_array.hpp"
#include "common/status.hpp"
#include "sim/latency_model.hpp"
#include "storage/options.hpp"

namespace ghba {

/// Timeout / retry / failure-detection knobs for the TCP prototype
/// (src/rpc). All durations in milliseconds. Defaults are deliberately
/// generous: prototype operations complete in microseconds, and the
/// simulated disk-spill sleeps (Fig. 14) reach hundreds of milliseconds,
/// so these bound genuine hangs without distorting healthy traffic. The
/// chaos tests tighten them to exercise the timeout paths.
struct RpcOptions {
  /// Bound on opening one TCP connection to a peer.
  std::uint32_t connect_timeout_ms = 500;
  /// Bound on one send+recv exchange (a single attempt of a call).
  std::uint32_t attempt_timeout_ms = 2000;
  /// Total per-call budget, covering all attempts, reconnects and backoff.
  std::uint32_t call_budget_ms = 8000;
  /// Attempts per call (1 = no retries).
  std::uint32_t max_attempts = 3;
  /// Base backoff between attempts; doubles per retry with +/-50% jitter.
  std::uint32_t retry_backoff_ms = 5;
  /// Consecutive call failures before a peer is suspected.
  std::uint32_t suspect_after = 2;
  /// Heart-beat confirmation: a suspected peer is pinged this many times
  /// (each bounded by ping_timeout_ms) and declared dead only if all fail.
  std::uint32_t ping_attempts = 3;
  std::uint32_t ping_timeout_ms = 500;
  /// Worker shards per MdsServer: requests hash to a shard by path, each
  /// shard owns its slice of the metadata state, and blocking work (WAL
  /// fsync, simulated disk probes) only ever stalls its own shard. 1 keeps
  /// the old single-owner behaviour on one worker thread.
  std::uint32_t server_shards = 2;
};

/// Knobs of the online adaptivity control loop (AdaptivityController).
/// The controller is pure policy: these thresholds decide when the live
/// signals (per-level hit ratios, lookup_state_bytes, peer health) justify
/// a reconfiguration, and the cooldown stops one burst of bad samples from
/// thrashing the topology.
struct AdaptivityOptions {
  bool enabled = false;
  /// Evaluate() returns kNone for this many ticks after any action, so the
  /// cluster observes the effect of one change before making the next.
  std::uint32_t cooldown_ticks = 3;
  /// lookup_state_bytes / memory budget above which an MDS join is asked
  /// for (replicas start spilling to disk past 1.0).
  double overload_fraction = 0.9;
  /// ...and below which a graceful leave is asked for, shrinking the
  /// cluster back when the state fits comfortably.
  double underload_fraction = 0.2;
  /// Never shrink below this many servers, whatever the signals say.
  std::uint32_t min_servers = 2;
  /// Evaluate() needs at least this many finished lookups before trusting
  /// the measured hit ratios / latencies (cold counters optimize noise).
  std::uint64_t min_lookup_samples = 64;
};

/// Server-side hot-spot handling (the front tier's shed/replicate loop).
/// The per-shard verify stream feeds a count-min sketch; a path whose
/// estimate crosses `hot_threshold` within one decay period is "hot".
struct HotSpotOptions {
  /// Lease TTL granted to clients on kLeaseGrant. 0 disables granting
  /// (clients fall back to uncached lookups).
  std::uint32_t lease_ttl_ms = 2000;
  /// Verify hits per decay period after which a path counts as hot.
  std::uint32_t hot_threshold = 64;
  /// Sketch geometry for the server-side detector (per shard).
  std::uint32_t sketch_width = 1024;
  std::uint32_t sketch_depth = 4;
  /// When true, a server over `shed_queue_depth` queued requests answers
  /// hot-path verifies with kRetryAfter instead of serving them. Off by
  /// default: shedding trades latency for throughput and the coherence
  /// audits want every request answered.
  bool shed_enabled = false;
  std::uint32_t shed_queue_depth = 256;
};

struct ClusterConfig {
  /// Initial number of metadata servers (N).
  std::uint32_t num_mds = 30;

  /// Maximum group size (M). Groups split when they would exceed this.
  std::uint32_t max_group_size = 6;

  /// Target size of the initial partition (0 = use max_group_size). Setting
  /// this to M-1 builds a "mature" configuration where every group still
  /// has room — the regime reconfiguration experiments average over.
  std::uint32_t initial_group_size = 0;

  /// Bloom-filter bit ratio (m/n). G-HBA's space savings let it afford a
  /// high ratio (the paper's Eq. 1 argument); the BFA8/BFA16 baselines use
  /// 8 and 16.
  double bits_per_file = 16.0;

  /// Expected files per MDS — sizes each local filter.
  std::uint64_t expected_files_per_mds = 50000;

  /// L1 LRU cache entries per MDS.
  std::uint32_t lru_capacity = 4096;

  /// L1 replacement policy. kLru is the paper's design; kSlru implements
  /// the "replacement efficiency" improvement its future-work section
  /// suggests (scan-resistant segmented LRU).
  LruPolicy lru_policy = LruPolicy::kLru;

  /// Per-MDS RAM budget. Replicas that do not fit are disk-resident.
  std::uint64_t memory_budget_bytes = 64ULL << 20;

  /// Replica-staleness bound: a home MDS republishes its filter after this
  /// many local mutations (create/unlink) since the last publish. This is
  /// the operational form of the XOR-distance threshold of Section 3.4.
  std::uint32_t publish_after_mutations = 256;

  /// Model per-MDS queueing delays (G/G/1 Lindley recursion driven by the
  /// trace's arrival times). Off by default: unit tests pass now_ms = 0 and
  /// would otherwise all queue behind each other. The paper's latency
  /// numbers include queueing ("all delays of actual operations, such as
  /// queuing, routing and memory retrieval", Sec. 3.3), and Fig. 6's
  /// interior optimum needs it: large groups amplify multicast load until
  /// servers saturate.
  bool model_queueing = false;

  /// Cooperative L1 caching (the paper's "future work": "consider the
  /// distributed and cooperative caching"): when a lookup had to escalate
  /// to the group or global level, the entry MDS pushes the discovered
  /// (file -> home) mapping to its group members' LRU arrays, so one
  /// expensive discovery seeds the whole group's L1. Costs one one-way
  /// message per member per shared discovery.
  bool cooperative_lru = false;

  /// Deterministic seed for all randomized decisions.
  std::uint64_t seed = 42;

  LatencyModel latency;

  /// Deadlines, retries and failure detection for the TCP prototype.
  RpcOptions rpc;

  /// Durable storage engine (WAL + checkpoints). data_dir empty = metadata
  /// lives in memory only, as in the paper's testbed. The prototype's
  /// MdsServer opens an engine under data_dir/mds-<id> when set.
  StorageOptions storage;

  /// Online adaptivity (group split / MDS join / leave under live load).
  AdaptivityOptions adaptivity;

  /// Hot-spot detection, lease TTLs and load shedding (front tier).
  HotSpotOptions hotspot;
};

/// Check a configuration before constructing a cluster with it: positive
/// populations, sane group bounds, a usable bit ratio. Returns the first
/// violation found.
Status ValidateClusterConfig(const ClusterConfig& config);

}  // namespace ghba

// In-process MDS daemon for the loopback prototype.
//
// One server = one epoll(7) event thread plus a pool of worker shards plus
// one maintenance thread (see DESIGN.md "Concurrency invariants" and
// "MdsServer shard roles"):
//
//   * The event thread owns the sockets. It accepts, reads whole frames out
//     of non-blocking connections (FrameAssembler), routes each request to
//     a shard, and flushes responses in per-connection request order. It
//     never blocks: injected delays become deferred flushes, and blocking
//     work lives on the workers. A memory-only probe whose shard is idle
//     it answers itself, under that shard's claim (Shard::busy), which
//     saves the two cross-thread wakeups a queued request pays.
//   * Requests hash to a shard by path (ShardOfPath). Each shard's worker
//     exclusively owns that shard's slice of the state — metadata store and
//     L1 LRU array — enforced at compile time by a per-shard ThreadRole
//     capability. Blocking work (WAL appends/fsyncs, the simulated
//     spilled-replica probe) stalls only the shard it runs on.
//   * State that is inherently whole-server — the counting local filter,
//     the segment replica array, the durable engine — is shared under
//     dedicated mutexes (filter_mu_, seg_mu_, wal_mu_), taken one at a
//     time; only the maintenance thread nests them (wal_mu_ outermost).
//   * The maintenance thread is the only thread that may park the workers
//     (a rendezvous at their queue fences); parked shards give it a
//     consistent cross-shard snapshot for checkpoints and kExportFiles.
//
// Connections are pipelined: any number of requests may be in flight and
// responses flush in request order per connection (cross-shard execution is
// unordered, but same-path requests share a shard and so stay FIFO). kBatch
// frames fan their sub-requests out to the owning shards and reassemble one
// batched response frame with a single CRC.
//
// The message counters are atomics so the orchestrator can read them live
// (Fig. 15 counts messages during reconfiguration).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bloom/bloom_filter_array.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "bloom/lru_bloom_array.hpp"
#include "common/count_min_sketch.hpp"
#include "common/metrics_registry.hpp"
#include "common/sync.hpp"
#include "core/config.hpp"
#include "mds/store.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"
#include "storage/engine.hpp"
#include "txn/txn_manager.hpp"

namespace ghba {

/// Stable routing hash: which of `num_shards` worker shards owns `path`'s
/// slice of the MDS state. Pure function of the path, so clients and tests
/// can aim traffic at (or away from) a specific shard.
std::uint32_t ShardOfPath(std::string_view path, std::uint32_t num_shards);

/// How the event loop reacts to a failed epoll_wait(2)/poll(2): EINTR and
/// EAGAIN are transient (retry the wait), anything else — EBADF, EINVAL,
/// ENOMEM, EFAULT — means the loop's own machinery is broken and silently
/// retrying would spin forever serving nobody. Exposed for unit tests.
enum class IoErrorAction { kRetry, kFatal };
IoErrorAction ClassifyWaitError(int errnum);

class MdsServer {
 public:
  MdsServer(MdsId id, const ClusterConfig& config);
  ~MdsServer();

  MdsServer(const MdsServer&) = delete;
  MdsServer& operator=(const MdsServer&) = delete;

  /// Attach a fault injector (call before Start): workers honour injected
  /// stalls for this server's id/shards, and responses pass through the
  /// injector's frame faults at flush time.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Bind a loopback port (0 = OS-assigned) and start the event thread,
  /// the worker shards and the maintenance thread. When
  /// config.storage.data_dir is set, first opens the durable engine under
  /// <data_dir>/mds-<id>, recovering any state a previous incarnation
  /// persisted and partitioning it across the shards; from then on every
  /// mutating RPC is logged before it is acked.
  Status Start(std::uint16_t port = 0);

  /// Stop every thread and join them. Idempotent.
  void Stop();

  MdsId id() const { return id_; }
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Live counters (readable from any thread).
  std::uint64_t frames_in() const {
    return frames_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_out() const {
    return frames_out_.load(std::memory_order_relaxed);
  }

  /// Why the event loop died, or empty while it is healthy. A fatal wait
  /// error stops the server (running() flips false) instead of busy-looping
  /// on a broken fd set; this is how the failure is made visible.
  std::string last_error() const;

  /// Test hook: make the next epoll_wait behave as if it failed with
  /// `errnum` (e.g. EBADF), driving the fatal-error path without actually
  /// sabotaging kernel state shared with other tests.
  void SabotageEventLoopForTest(int errnum) {
    sabotage_errno_.store(errnum, std::memory_order_release);
  }

  /// This server's metrics registry (internally synchronized): per-level
  /// outcome counters fed by kReportOutcome plus serve-side request counts.
  /// The same data kStatsSnapshot exports over the wire.
  MetricsSnapshot MetricsSnapshotNow() const { return registry_.Snapshot(); }

 private:
  /// One request frame queued to a shard (or the maintenance thread), plus
  /// where its response slots into the connection's ordered flush window.
  struct Task {
    std::uint64_t conn_id = 0;  ///< 0 = internal task (no response slot)
    std::uint64_t seq = 0;
    std::int32_t slot = -1;  ///< >= 0: sub-frame index of a kBatch request
    std::vector<std::uint8_t> frame;
    MdsId drop_home = kInvalidMds;  ///< internal: purge this home from L1
  };

  /// A finished request travelling back to the event thread.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::int32_t slot = -1;
    bool respond = false;
    std::vector<std::uint8_t> payload;
  };

  /// A worker shard: the slice of MDS state its thread exclusively owns
  /// (guarded by the shard's ThreadRole) plus its task queue. The atomic
  /// mirrors let stats requests running on other shards read this shard's
  /// sizes without touching role-guarded state.
  struct Shard {
    std::uint32_t index = 0;
    ThreadRole role;
    MetadataStore store GHBA_GUARDED_BY(role);
    LruBloomArray lru GHBA_GUARDED_BY(role);
    /// Outstanding client leases for this shard's paths (path -> absolute
    /// steady-clock expiry, ms). Shard-owned like the store: the probes
    /// and kLeaseGrant that record leases, kInvalidate and kUnlink are all
    /// path-routed, so every access runs on this worker.
    std::unordered_map<std::string, std::uint64_t> leases
        GHBA_GUARDED_BY(role);
    /// Leases recorded on this shard so far; every 256th sweeps the
    /// expired ones out of `leases`.
    std::uint64_t lease_grants GHBA_GUARDED_BY(role) = 0;
    /// Hot-spot detector over the requests that ask this shard about its
    /// own store.
    CountMinSketch hot_sketch GHBA_GUARDED_BY(role);

    // Holders probe the fault injector (IsShardStalled) inside the wait
    // loop and the event thread's claim, so this ranks above
    // kFaultInjector; nothing else nests in it.
    Mutex mu{LockRank::kServerShard};
    std::condition_variable_any cv;
    std::deque<Task> queue GHBA_GUARDED_BY(mu);
    bool park_requested GHBA_GUARDED_BY(mu) = false;
    bool parked GHBA_GUARDED_BY(mu) = false;
    /// The claim on this shard's state: set by whoever runs a task on it —
    /// the worker when it pops one, the event thread when it answers a
    /// probe inline on an idle shard — and cleared when that task is done.
    bool busy GHBA_GUARDED_BY(mu) = false;
    /// The worker is waiting for the event thread's claim to end; the
    /// release wakes it only then, so an idle worker is never woken.
    bool claim_waiter GHBA_GUARDED_BY(mu) = false;

    std::atomic<std::uint64_t> files{0};
    std::atomic<std::uint64_t> lru_bytes{0};
    /// Tasks posted but not yet dequeued; the shed decision reads it
    /// without taking mu.
    std::atomic<std::uint64_t> queue_len{0};
    std::thread thread;

    Shard(const LruBloomArray::Options& lru_options,
          const HotSpotOptions& hot_options, std::uint64_t seed)
        : lru(lru_options),
          hot_sketch(hot_options.sketch_width, hot_options.sketch_depth,
                     seed) {}
  };

  void IoLoop();
  void WorkerLoop(Shard* shard);
  void MaintenanceLoop();

  /// Flip stop_ and wake every thread (event loop via eventfd, workers and
  /// maintenance via their condvars). Safe from any thread.
  void RequestStop();

  /// Which shard executes `frame`: path-routed types hash the path, all
  /// other (and malformed) frames run on shard 0.
  std::uint32_t RouteShard(const std::vector<std::uint8_t>& frame) const;

  void PostTask(std::uint32_t shard, Task task);
  void PostTaskLocked(Shard& shard, Task task) GHBA_REQUIRES(shard.mu);
  void PostCompletion(Completion completion);

  /// The event thread's one dispatch decision for a non-batch request:
  /// answer it inline, into `done`, when it is a memory-only probe and
  /// its shard is idle (empty queue, no claim, no park, no injected stall,
  /// no spilled replicas); otherwise queue it exactly like PostTask.
  /// True = answered inline.
  bool DispatchToShard(std::uint32_t shard, Task task, Completion& done);
  /// End the claim on `shard` (Shard::busy), waking a worker that waits
  /// for it.
  void ReleaseClaim(Shard& shard);

  /// Record the fatal event-loop error and stop the server. Event-thread
  /// only: the io_role_ requirement both documents that and arms the
  /// `ghba-blocking-on-event-thread` check — anything reachable from here
  /// must never fsync/sleep/poll/connect.
  void FailEventLoop(const char* what, int errnum) GHBA_REQUIRES(io_role_);

  /// Dispatch one request frame on `shard`'s worker; returns the response
  /// payload, or empty for one-way messages. Sets `shutdown` for kShutdown.
  std::vector<std::uint8_t> Handle(const std::vector<std::uint8_t>& frame,
                                   Shard& shard, bool& respond,
                                   bool& shutdown) GHBA_REQUIRES(shard.role);

  /// The memory-only requests (probes, verifies, lease grants, L1 touches,
  /// outcome reports): the part of Handle the event thread may run inline.
  /// `in` is positioned after the type tag. Nothing reachable from here
  /// journals, fsyncs or sleeps.
  std::vector<std::uint8_t> HandleProbe(MsgType type, ByteReader& in,
                                        Shard& shard, bool& respond)
      GHBA_REQUIRES(shard.role);

  /// Emulate memory pressure before a segment-array probe: replicas beyond
  /// the budget live on (simulated) disk, so probing them blocks. Worker
  /// only — an overflowing server never answers probes inline.
  void PaySpilledProbeDelay() const;
  /// L1 (when `include_lru`) and L2 probes plus this server's own answer
  /// for `path` (AnswerForSelf), recording a lease when `lease` asks.
  LocalLookupResp RunLocalLookup(const std::string& path, bool include_lru,
                                 bool lease, Shard& shard)
      GHBA_REQUIRES(shard.role);

  /// This server's answer about its own store (v6 self-answer).
  struct SelfAnswer {
    SelfVerdict verdict = SelfVerdict::kAbsent;
    std::uint32_t lease_ttl_ms = 0;  ///< lease recorded; 0 = none
  };
  /// The one self-answer that kVerify, kLeaseGrant, kLookupLocal and
  /// kGroupProbe share, run on the shard that owns `path`. `may_hold` is
  /// the local filter's verdict: a miss is exact (the filter has no false
  /// negatives), a hit is checked in the store. A hit counts one unit of
  /// heat and is shed when hot on an overloaded shard; a held path gets a
  /// lease when `lease` asks and lease_ttl_ms > 0.
  SelfAnswer AnswerForSelf(const std::string& path, bool may_hold, bool lease,
                           Shard& shard) GHBA_REQUIRES(shard.role);
  /// The local filter's verdict on `path`.
  bool OwnFilterMayContain(const std::string& path) const;

  /// Feed one access to the shard's hot-spot sketch (decaying it on
  /// period) and return the post-add estimate for `path`.
  std::uint64_t NoteHotAccess(const std::string& path, Shard& shard)
      GHBA_REQUIRES(shard.role);

  /// Fraction of replica bytes beyond the memory budget (after the LRU
  /// array and the local filter take their share). Probing those blocks —
  /// on the shard's worker, never on the event thread.
  double ReplicaOverflowFraction() const;

  /// Resident bytes of the lookup structures (live LookupStateBytes).
  std::uint64_t LookupStateBytes() const;

  /// Tell the maintenance thread a checkpoint is due (worker-side cheap
  /// check after a WAL append crossed the threshold).
  void NoteCheckpointDue();

  // --- maintenance-thread operations (run with every shard parked; the
  // park fence, not a lock, is what makes the role-guarded reads sound) ---
  void ParkAllShards();
  void ReleaseAllShards();
  // Reading the parked shards' role-guarded stores from the maintenance
  // thread is invisible to the analysis; the park fence is the guarantee.
  void RunCheckpoint() GHBA_NO_THREAD_SAFETY_ANALYSIS;
  void RunExport(Task task) GHBA_NO_THREAD_SAFETY_ANALYSIS;

  MdsId id_;
  ClusterConfig config_;
  FaultInjector* injector_ = nullptr;
  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<int> sabotage_errno_{0};

  FdHandle epoll_fd_;
  FdHandle event_fd_;
  /// The event thread's capability: adopted once at the top of IoLoop.
  /// Functions marked GHBA_REQUIRES(io_role_) run on the event thread only
  /// and are scanned by `ghba-blocking-on-event-thread` for blocking calls.
  ThreadRole io_role_;
  std::thread io_thread_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Workers/maintenance -> event thread: finished requests. The eventfd is
  // written after every post so the event thread wakes promptly.
  mutable Mutex out_mu_{LockRank::kServerOut};
  std::vector<Completion> outbox_ GHBA_GUARDED_BY(out_mu_);

  // Maintenance thread inputs: pending export requests + checkpoint flag.
  std::thread maint_thread_;
  mutable Mutex maint_mu_{LockRank::kServerMaint};
  std::condition_variable_any maint_cv_;
  std::deque<Task> maint_queue_ GHBA_GUARDED_BY(maint_mu_);
  bool checkpoint_pending_ GHBA_GUARDED_BY(maint_mu_) = false;

  // --- whole-server lookup state, shared across shards ---
  // Ranked below wal_mu_: the mutation paths journal under wal_mu_ and
  // roll back / snapshot the filter and segment inside that scope.
  mutable Mutex filter_mu_{LockRank::kServerFilter};
  CountingBloomFilter local_filter_ GHBA_GUARDED_BY(filter_mu_);
  mutable Mutex seg_mu_{LockRank::kServerSeg};
  BloomFilterArray segment_ GHBA_GUARDED_BY(seg_mu_);
  /// Durable engine; null when running memory-only (no --data-dir). One
  /// WAL per server: appends serialize on wal_mu_, which lookups never
  /// take — an fsync storm cannot block the read path.
  // Highest server rank: the journaling discipline nests seg_mu_ and
  // filter_mu_ inside it (apply -> log -> ack, rollback on log failure).
  mutable Mutex wal_mu_{LockRank::kServerWal};
  std::unique_ptr<StorageEngine> engine_ GHBA_GUARDED_BY(wal_mu_);
  /// Two-phase-commit state (intent locks, pending prepares, coordinator
  /// decisions). Internally synchronized at rank kServerTxn — deliberately
  /// above wal_mu_, so txn handlers journal inside the intent-lock critical
  /// section (check -> journal -> mutate; see txn_manager.hpp).
  TxnManager txn_;

  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};

  mutable Mutex err_mu_{LockRank::kServerErr};
  std::string last_error_ GHBA_GUARDED_BY(err_mu_);

  // Internally synchronized (atomic counters, striped histograms): written
  // from worker threads, snapshotted from any thread.
  MetricsRegistry registry_;
  MetricsRegistry::Counter outcome_l1_;
  MetricsRegistry::Counter outcome_l2_;
  MetricsRegistry::Counter outcome_l3_;
  MetricsRegistry::Counter outcome_l4_;
  MetricsRegistry::Counter outcome_miss_;
  MetricsRegistry::Counter outcome_false_routes_;
  MetricsRegistry::Counter serve_local_lookups_;
  MetricsRegistry::Counter serve_group_probes_;
  MetricsRegistry::Counter serve_global_probes_;
  MetricsRegistry::Counter serve_verifies_;
  MetricsRegistry::Counter serve_lease_requests_;
  MetricsRegistry::Counter serve_lease_grants_;
  MetricsRegistry::Counter serve_lease_refusals_;
  MetricsRegistry::Counter serve_invalidations_;
  MetricsRegistry::Counter serve_lease_sweeps_;
  MetricsRegistry::Counter serve_leases_expired_;
  MetricsRegistry::Counter serve_hot_keys_;
  MetricsRegistry::Counter serve_shed_requests_;
  MetricsRegistry::Counter serve_inline_requests_;
  MetricsRegistry::Counter serve_txn_begins_;
  MetricsRegistry::Counter serve_txn_prepares_;
  MetricsRegistry::Counter serve_txn_commits_;
  MetricsRegistry::Counter serve_txn_aborts_;
  MetricsRegistry::Counter serve_txn_resolves_;
  MetricsRegistry::Counter reconfig_messages_;
  MetricsRegistry::LatencyHistogram outcome_latency_ms_;
};

}  // namespace ghba

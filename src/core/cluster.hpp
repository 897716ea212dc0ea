// Abstract metadata-cluster interface plus shared machinery.
//
// All schemes (G-HBA, HBA, BFA, hash placement) implement MetadataCluster:
// the trace-driven simulator, the examples and the benchmarks only talk to
// this interface, so schemes are interchangeable.
//
// ClusterBase carries what every scheme shares: the MDS nodes, the
// simulation oracle (an exact path -> home map used for bookkeeping and
// verification — never consulted for routing), deterministic randomness,
// metrics, and the replica-memory accounting that drives the spill-to-disk
// latency model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/mds_node.hpp"
#include "mds/metadata.hpp"

namespace ghba {

/// What a reconfiguration (join/leave) cost.
struct ReconfigReport {
  std::uint64_t replicas_migrated = 0;  ///< Bloom-filter replica movements
  std::uint64_t files_migrated = 0;     ///< metadata records re-homed
  std::uint64_t messages = 0;
  bool group_split = false;
  bool group_merged = false;
};

class MetadataCluster {
 public:
  virtual ~MetadataCluster() = default;

  virtual std::string SchemeName() const = 0;

  /// Route a metadata lookup for `path` entering the system at simulated
  /// time `now_ms` via a random MDS.
  virtual LookupOutcome Lookup(const std::string& path, double now_ms) = 0;

  /// Create a file: a random MDS becomes its home (paper: "all MDSs are
  /// initially populated randomly"); home-local filter updated immediately,
  /// replicas lazily via the publish policy.
  virtual Status CreateFile(const std::string& path, FileMetadata metadata,
                            double now_ms) = 0;

  /// Delete a file from its home.
  virtual Status UnlinkFile(const std::string& path, double now_ms) = 0;

  /// close(2): locate the file, then apply an attribute write (size/mtime)
  /// at its home MDS. Routing costs are the same as Lookup; the write adds
  /// a store update at the home. Returns the lookup outcome.
  virtual LookupOutcome CloseFile(const std::string& path, double now_ms,
                                 std::uint64_t new_size_bytes) = 0;

  /// Directory rename: every file whose path starts with `old_prefix` gets
  /// the prefix replaced by `new_prefix`. This is Table 1's "directory
  /// operations" axis made concrete: pathname-hashed placement (Lazy
  /// Hybrid-style) must *migrate* every affected file to its newly hashed
  /// home, while the Bloom-filter schemes only update local filters.
  /// Returns the number of files renamed.
  virtual Result<std::uint64_t> RenamePrefix(const std::string& old_prefix,
                                             const std::string& new_prefix,
                                             double now_ms,
                                             ReconfigReport* report) = 0;

  /// Add a fresh MDS; returns its id.
  virtual Result<MdsId> AddMds(ReconfigReport* report) = 0;

  /// Gracefully remove an MDS (its replicas and files are re-homed).
  virtual Status RemoveMds(MdsId id, ReconfigReport* report) = 0;

  virtual std::uint32_t NumMds() const = 0;

  /// Bytes of lookup-structure memory (replicas + LRU + directories) on one
  /// MDS under the scheme's accounting (Table 5).
  virtual std::uint64_t LookupStateBytes(MdsId id) const = 0;

  /// Force-push every MDS's current filter to its replica holders. Called
  /// after bulk population; schemes without replicas ignore it.
  virtual void FlushReplicas(double now_ms) { (void)now_ms; }

  virtual ClusterMetrics& metrics() = 0;
  virtual const ClusterMetrics& metrics() const = 0;
};

/// Shared implementation base.
class ClusterBase : public MetadataCluster {
 public:
  explicit ClusterBase(ClusterConfig config);

  std::uint32_t NumMds() const override {
    return static_cast<std::uint32_t>(alive_.size());
  }

  ClusterMetrics& metrics() override { return metrics_; }
  const ClusterMetrics& metrics() const override { return metrics_; }

  /// Shared close(): route via the scheme's Lookup, then mutate the record
  /// in place at the home (no filter change — the path set is unchanged).
  LookupOutcome CloseFile(const std::string& path, double now_ms,
                         std::uint64_t new_size_bytes) override;

  const ClusterConfig& config() const { return config_; }

  /// The simulation oracle's view of a path's home (kInvalidMds if absent).
  /// Bookkeeping only — never used for routing decisions.
  MdsId OracleHome(const std::string& path) const;

  MdsNode& node(MdsId id) { return *nodes_.at(id); }
  const MdsNode& node(MdsId id) const { return *nodes_.at(id); }
  bool IsAlive(MdsId id) const;
  const std::vector<MdsId>& alive() const { return alive_; }

 protected:
  /// Uniformly random live MDS (entry point of a query / home of a create).
  MdsId RandomMds();

  /// Register a brand-new node and return its id.
  MdsId NewNode();

  /// Drop a node entirely (after the derived class migrated its state).
  void RetireNode(MdsId id);

  /// Insert into the oracle; fails on duplicates.
  Status OracleInsert(const std::string& path, MdsId home);
  Status OracleErase(const std::string& path);

  /// All oracle paths beginning with `prefix` (for directory renames).
  std::vector<std::string> OraclePathsWithPrefix(
      const std::string& prefix) const;

  /// Shared RenamePrefix implementation for schemes whose placement does
  /// not depend on the pathname (G-HBA, HBA, BFA): each affected file stays
  /// on its home; only the home's local filter and store keys change.
  /// `maybe_publish(home, now_ms)` is invoked once per touched home so the
  /// scheme's staleness policy can refresh replicas.
  Result<std::uint64_t> RenameKeysKeepingHomes(
      const std::string& old_prefix, const std::string& new_prefix,
      double now_ms,
      const std::function<void(MdsId, double)>& maybe_publish);

  /// Published replica size of `owner`'s filter under the analytic
  /// accounting: bits_per_file / 8 * published file count. Replica holders
  /// charge this against their memory budget.
  std::uint64_t PublishedReplicaBytes(MdsId owner) const;
  void SetPublishedFileCount(MdsId owner, std::uint64_t files);

  /// Expected fraction of `holder`'s replica set that is disk-resident,
  /// given `replica_bytes` charged to the "replicas" category.
  double ReplicaOverflowFraction(MdsId holder) const;

  /// Refresh `holder`'s memory accounting. `replica_bytes` is the analytic
  /// total of all replicas it currently holds.
  void ChargeMemory(MdsId holder, std::uint64_t replica_bytes);

  /// Cache-hit probability for authoritative metadata reads on `id`.
  double MetadataCacheHitProb(MdsId id) const;

  /// Cost (ms) of probing `filters` filters on `holder`, accounting for the
  /// disk-resident fraction; bumps metrics().disk_probes.
  double ProbeCost(MdsId holder, std::uint64_t filters);

  /// Run `service_ms` of work on `id` starting no earlier than
  /// `arrival_ms`; returns wait + service. With queueing disabled this is
  /// just `service_ms`; enabled, it applies the G/G/1 Lindley recursion on
  /// the node's FIFO queue, so saturated MDSs accumulate delay.
  double ServeAt(MdsId id, double arrival_ms, double service_ms);

  /// ServeAt(home, ...) for one mutation: the home is occupied for one
  /// in-memory metadata update (feeds the queueing model when enabled).
  double ChargeMutation(MdsId home, double now_ms);

  ClusterConfig config_;
  Rng rng_;
  ClusterMetrics metrics_;

  std::vector<std::unique_ptr<MdsNode>> nodes_;  // index = MdsId
  std::vector<MdsId> alive_;                     // live ids, sorted
  std::unordered_map<std::string, MdsId> oracle_;
  std::vector<std::uint64_t> published_files_;   // per MdsId
};

}  // namespace ghba

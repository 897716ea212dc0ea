// Per-layer measurements of the traced run. Everything here calls the
// modules' public functions from the benchmark's side: a probe thread that
// samples the cluster lock and a bare server round trip while the load
// runs, and replays, after the timed window, of a fixed sample of the
// window's operations against one layer at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rpc/socket.hpp"
#include "workload.hpp"

namespace perfbench {

/// The third thread of the traced run. It keeps its own TcpConnection per
/// server, so its kVerify round trips bypass the cluster coordinator.
class LoadProbe {
 public:
  static ghba::Result<std::unique_ptr<LoadProbe>> Open(
      ghba::PrototypeCluster& cluster, std::vector<std::string> paths);

  /// `n` sequential kVerify round trips with no other load (microseconds).
  ghba::Result<std::vector<double>> IdleRtt(unsigned n);

  /// Thread body: while `traced` is set, time a bare RoutingEpoch() call
  /// and one kVerify round trip every couple of milliseconds; idle
  /// otherwise. Returns when `stop` is set.
  void Run(const std::atomic<bool>& traced, const std::atomic<bool>& stop);

  const std::vector<double>& lock_wait_us() const { return lock_wait_us_; }
  const std::vector<double>& rtt_us() const { return rtt_us_; }
  /// kVerify frames sent during Run (they count in the servers' frames_in
  /// and serve.verifies, so per-op ratios subtract them).
  std::uint64_t window_verifies() const { return window_verifies_; }
  const std::string& error() const { return error_; }

 private:
  LoadProbe(ghba::PrototypeCluster& cluster, std::vector<std::string> paths)
      : cluster_(cluster), paths_(std::move(paths)) {}
  ghba::Result<double> VerifyRoundTrip();

  ghba::PrototypeCluster& cluster_;
  const std::vector<std::string> paths_;
  std::vector<ghba::TcpConnection> conns_;
  std::uint64_t next_ = 0;
  std::vector<double> lock_wait_us_;
  std::vector<double> rtt_us_;
  std::uint64_t window_verifies_ = 0;
  std::string error_;
};

/// Results of the post-window layer replays.
struct Replays {
  std::vector<double> cluster_lookup_us;  ///< PrototypeCluster::Lookup
  double frames_per_lookup = 0;
  std::vector<double> lease_us;       ///< PrototypeCluster::RequestLease
  std::vector<double> invalidate_us;  ///< PrototypeCluster::InvalidatePath
  double may_contain_ns = 0;          ///< BloomFilter::MayContain
  std::vector<double> log_insert_us;  ///< StorageEngine::LogInsert
  std::vector<double> txn_drive_us;   ///< PrototypeCluster::Rename
  double txn_frames_per_rename = 0;
  double txn_wal_appends_per_rename = 0;
  std::uint64_t operations = 0;
  std::vector<std::string> errors;  ///< wrong answers or failed calls
};

/// Replay `stats` (paths with their expected existence) layer by layer on
/// the quiet cluster, then drive `renames` fresh cross-MDS renames. The
/// side storage engine lives under `side_dir`, removed afterwards.
Replays RunReplays(ClusterRun& run, const std::vector<Op>& stats,
                   unsigned renames, const std::string& side_dir);

}  // namespace perfbench

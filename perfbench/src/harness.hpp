// The cluster under test: a durable in-process G-HBA prototype (6 MDSs in
// groups of at most 3, 2 server shards each, every mutation logged to a
// WAL), populated with the workload namespace and driven through one
// ghba::Client per benchmark thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client.hpp"
#include "workload.hpp"

namespace perfbench {

inline constexpr std::uint32_t kNumMds = 6;
inline constexpr std::uint32_t kGroupSize = 3;
inline constexpr std::uint32_t kServerShards = 2;
inline constexpr unsigned kClientThreads = 2;

/// One started, populated and published cluster with its client facades.
/// Owns its data directory: the destructor stops the servers and removes it.
class ClusterRun {
 public:
  /// Start the servers under `data_dir`, create `files` with InsertBatch,
  /// PublishAll, and attach `clients` facades with default ClientOptions.
  static ghba::Result<std::unique_ptr<ClusterRun>> Start(
      const Shape& shape, const std::string& data_dir,
      const std::vector<std::pair<std::string, ghba::FileMetadata>>& files,
      unsigned clients);

  ~ClusterRun();
  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  ghba::PrototypeCluster& cluster() { return *cluster_; }
  ghba::Client& client(unsigned i) { return *clients_[i]; }
  const ghba::ClusterConfig& config() const { return config_; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  ClusterRun(ghba::ClusterConfig config, std::string data_dir);

  const ghba::ClusterConfig config_;
  const std::string data_dir_;
  std::unique_ptr<ghba::PrototypeCluster> cluster_;
  std::vector<std::unique_ptr<ghba::Client>> clients_;
};

/// Every server's kStatsSnapshot plus the client registry, taken after a
/// Quiesce so all one-way outcome reports are counted.
struct Sample {
  std::vector<ghba::StatsSnapshotResp> servers;
  ghba::MetricsSnapshot client;

  std::uint64_t Sum(const char* counter) const;
  std::uint64_t FramesIn() const;
  std::vector<std::uint64_t> FramesInPerServer() const;
  std::uint64_t LookupStateBytes() const;
  std::uint64_t Files() const;
  /// Sum over servers of a histogram's count / sum.
  std::uint64_t HistogramCount(const char* name) const;
  double HistogramSum(const char* name) const;
  /// Levels l1 + l2 + l3 + l4 + miss, summed over the servers.
  std::uint64_t LookupLevels() const;
};

ghba::Result<Sample> TakeSample(ghba::PrototypeCluster& cluster);

/// Name of the filesystem holding `path` (tmpfs, ext2/3/4, xfs, ...).
std::string FilesystemOf(const std::string& path);

}  // namespace perfbench

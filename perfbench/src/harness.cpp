#include "harness.hpp"

#include <sys/vfs.h>

#include <filesystem>

#include "core/metrics.hpp"

namespace perfbench {

using ghba::Result;
using ghba::Status;

namespace {

ghba::ClusterConfig MakeConfig(const Shape& shape,
                               const std::string& data_dir) {
  ghba::ClusterConfig config;
  config.num_mds = kNumMds;
  config.max_group_size = kGroupSize;
  config.rpc.server_shards = kServerShards;
  // Local filters sized for the namespace share of one server plus the
  // files a churn run adds.
  config.expected_files_per_mds = shape.files / kNumMds + shape.files / 20 + 64;
  config.seed = 2008;
  // Leases outlive a run, so cache residency alone decides a client hit.
  // With the 2 s default, the 2,000-file hot set expired continuously:
  // expiry cascades then held the cluster mutex most of the time, the hit
  // path queued behind them, and stat_hot's throughput swung 30x between
  // runs.
  config.hotspot.lease_ttl_ms = 600'000;
  config.storage.data_dir = data_dir;
  // Every mutation is still framed, appended and committed through the
  // WAL; only the device flush is skipped. The data directory must live in
  // the benchmark's own tree, which is usually disk-backed, and there
  // fsync=always made the write workload vary by up to 2x between runs
  // with the host's disk traffic. On tmpfs an fsync costs about a
  // microsecond, so this keeps the costs the benchmark meant to measure.
  config.storage.fsync = ghba::FsyncPolicy::kNever;
  return config;
}

}  // namespace

ClusterRun::ClusterRun(ghba::ClusterConfig config, std::string data_dir)
    : config_(std::move(config)), data_dir_(std::move(data_dir)) {}

ClusterRun::~ClusterRun() {
  clients_.clear();
  if (cluster_) cluster_->Stop();
  cluster_.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_dir_, ec);
}

Result<std::unique_ptr<ClusterRun>> ClusterRun::Start(
    const Shape& shape, const std::string& data_dir,
    const std::vector<std::pair<std::string, ghba::FileMetadata>>& files,
    unsigned clients) {
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::create_directories(data_dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir " + data_dir + ": " +
                            ec.message());
  }
  ghba::ClusterConfig config = MakeConfig(shape, data_dir);
  if (Status s = ghba::ValidateClusterConfig(config); !s.ok()) return s;

  std::unique_ptr<ClusterRun> run(new ClusterRun(config, data_dir));
  run->cluster_ = std::make_unique<ghba::PrototypeCluster>(
      config, ghba::ProtoScheme::kGhba);
  if (Status s = run->cluster_->Start(); !s.ok()) {
    return Status::Unavailable("cluster start: " + s.ToString());
  }
  if (Status s = run->cluster_->InsertBatch(files); !s.ok()) {
    return Status::Internal("populate: " + s.ToString());
  }
  if (Status s = run->cluster_->PublishAll(); !s.ok()) {
    return Status::Internal("publish: " + s.ToString());
  }
  for (unsigned i = 0; i < clients; ++i) {
    run->clients_.push_back(ghba::Client::Attach(run->cluster_.get()));
  }
  return run;
}

std::uint64_t Sample::Sum(const char* counter) const {
  std::uint64_t total = 0;
  for (const auto& s : servers) total += s.metrics.CounterOr(counter);
  return total;
}

std::uint64_t Sample::FramesIn() const {
  std::uint64_t total = 0;
  for (const auto& s : servers) total += s.frames_in;
  return total;
}

std::vector<std::uint64_t> Sample::FramesInPerServer() const {
  std::vector<std::uint64_t> out;
  for (const auto& s : servers) out.push_back(s.frames_in);
  return out;
}

std::uint64_t Sample::LookupStateBytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers) total += s.lookup_state_bytes;
  return total;
}

std::uint64_t Sample::Files() const {
  std::uint64_t total = 0;
  for (const auto& s : servers) total += s.files;
  return total;
}

std::uint64_t Sample::HistogramCount(const char* name) const {
  std::uint64_t total = 0;
  for (const auto& s : servers) {
    if (const auto it = s.metrics.histograms.find(name);
        it != s.metrics.histograms.end()) {
      total += it->second.count;
    }
  }
  return total;
}

double Sample::HistogramSum(const char* name) const {
  double total = 0;
  for (const auto& s : servers) {
    if (const auto it = s.metrics.histograms.find(name);
        it != s.metrics.histograms.end()) {
      total += it->second.sum;
    }
  }
  return total;
}

std::uint64_t Sample::LookupLevels() const {
  namespace names = ghba::metrics_names;
  return Sum(names::kLookupsL1) + Sum(names::kLookupsL2) +
         Sum(names::kLookupsL3) + Sum(names::kLookupsL4) +
         Sum(names::kLookupsMiss);
}

Result<Sample> TakeSample(ghba::PrototypeCluster& cluster) {
  if (Status s = cluster.Quiesce(); !s.ok()) return s;
  Sample sample;
  for (const ghba::MdsId id : cluster.AliveServers()) {
    auto stats = cluster.FetchStats(id);
    if (!stats.ok()) return stats.status();
    sample.servers.push_back(std::move(*stats));
  }
  sample.client = cluster.ClientSnapshot();
  return sample;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext2/3/4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    default: return "other";
  }
}

}  // namespace perfbench

#include "layers.hpp"

#include <filesystem>
#include <thread>

#include "bloom/counting_bloom_filter.hpp"
#include "core/metrics.hpp"
#include "rpc/protocol.hpp"
#include "stats.hpp"
#include "storage/engine.hpp"

namespace perfbench {

using ghba::Result;
using ghba::Status;

namespace {

constexpr auto kProbeTimeout = std::chrono::milliseconds(2000);

/// Frames a Quiesce itself sends (one kPing per cached connection), so
/// frame deltas bracketed by two Quiesce calls can discount the second.
Result<std::uint64_t> QuiesceFrames(ghba::PrototypeCluster& cluster) {
  const std::uint64_t before = cluster.TotalFramesIn();
  if (Status s = cluster.Quiesce(); !s.ok()) return s;
  return cluster.TotalFramesIn() - before;
}

}  // namespace

Result<std::unique_ptr<LoadProbe>> LoadProbe::Open(
    ghba::PrototypeCluster& cluster, std::vector<std::string> paths) {
  if (paths.empty()) return Status::InvalidArgument("probe needs paths");
  std::unique_ptr<LoadProbe> probe(new LoadProbe(cluster, std::move(paths)));
  for (const std::uint16_t port : cluster.ServerPorts()) {
    auto conn = ghba::TcpConnection::Connect(
        port, ghba::Deadline::After(kProbeTimeout));
    if (!conn.ok()) return conn.status();
    probe->conns_.push_back(std::move(*conn));
  }
  return probe;
}

Result<double> LoadProbe::VerifyRoundTrip() {
  const std::uint64_t i = next_++;
  ghba::TcpConnection& conn = conns_[i % conns_.size()];
  const auto req = ghba::EncodePathRequest(ghba::MsgType::kVerify,
                                           paths_[i % paths_.size()]);
  const std::uint64_t t0 = NowNs();
  const auto deadline = ghba::Deadline::After(kProbeTimeout);
  if (Status s = conn.SendFrame(req, deadline); !s.ok()) return s;
  auto resp = conn.RecvFrame(deadline);
  const std::uint64_t t1 = NowNs();
  if (!resp.ok()) return resp.status();
  ghba::ByteReader in(*resp);
  auto env = ghba::OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  if (auto found = ghba::DecodeBoolResp(in); !found.ok()) {
    return found.status();
  }
  return static_cast<double>(t1 - t0) / 1e3;
}

Result<std::vector<double>> LoadProbe::IdleRtt(unsigned n) {
  std::vector<double> out;
  for (unsigned i = 0; i < n; ++i) {
    auto rtt = VerifyRoundTrip();
    if (!rtt.ok()) return rtt.status();
    out.push_back(*rtt);
  }
  return out;
}

void LoadProbe::Run(const std::atomic<bool>& traced,
                    const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire)) {
    if (!traced.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    const std::uint64_t t0 = NowNs();
    (void)cluster_.RoutingEpoch();  // the timed call; its value is unused
    lock_wait_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    auto rtt = VerifyRoundTrip();
    ++window_verifies_;
    if (!rtt.ok()) {
      if (error_.empty()) error_ = "probe kVerify: " + rtt.status().ToString();
    } else {
      rtt_us_.push_back(*rtt);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

void ReplayLookups(ghba::PrototypeCluster& cluster,
                   const std::vector<Op>& stats, Replays& out,
                   std::vector<ghba::MdsId>& homes) {
  const auto pings = QuiesceFrames(cluster);
  if (!pings.ok()) {
    out.errors.push_back("quiesce: " + pings.status().ToString());
    return;
  }
  const std::uint64_t frames_before = cluster.TotalFramesIn();
  for (const Op& op : stats) {
    const std::uint64_t t0 = NowNs();
    auto r = cluster.Lookup(op.path);
    out.cluster_lookup_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out.operations;
    if (!r.ok()) {
      out.errors.push_back("replay lookup " + op.path + ": " +
                           r.status().ToString());
      homes.push_back(ghba::kInvalidMds);
      continue;
    }
    if (r->found != op.expect_found) {
      out.errors.push_back("replay lookup " + op.path + ": wrong answer");
    }
    homes.push_back(r->found ? r->home : ghba::kInvalidMds);
  }
  if (Status s = cluster.Quiesce(); !s.ok()) {
    out.errors.push_back("quiesce: " + s.ToString());
    return;
  }
  const std::uint64_t frames = cluster.TotalFramesIn() - frames_before;
  out.frames_per_lookup =
      Ratio(static_cast<double>(frames - std::min(frames, *pings)),
            static_cast<double>(stats.size()));
}

void ReplayLeases(ghba::PrototypeCluster& cluster,
                  const std::vector<Op>& stats,
                  const std::vector<ghba::MdsId>& homes, Replays& out) {
  for (std::size_t i = 0; i < stats.size() && i < homes.size(); ++i) {
    if (homes[i] == ghba::kInvalidMds) continue;
    const std::uint64_t t0 = NowNs();
    auto lease = cluster.RequestLease(homes[i], stats[i].path);
    out.lease_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out.operations;
    if (!lease.ok()) {
      out.errors.push_back("replay lease " + stats[i].path + ": " +
                           lease.status().ToString());
    }
  }
  for (const Op& op : stats) {
    const std::uint64_t t0 = NowNs();
    const Status s = cluster.InvalidatePath(op.path);
    out.invalidate_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out.operations;
    if (!s.ok()) {
      out.errors.push_back("replay invalidate " + op.path + ": " +
                           s.ToString());
    }
  }
}

void ReplayBloom(ghba::PrototypeCluster& cluster, const std::vector<Op>& stats,
                 Replays& out) {
  std::vector<ghba::BloomFilter> filters;
  for (const ghba::MdsId id : cluster.AliveServers()) {
    auto filter = cluster.FilterOf(id);
    if (!filter.ok()) {
      out.errors.push_back("FilterOf: " + filter.status().ToString());
      return;
    }
    filters.push_back(std::move(*filter));
  }
  if (stats.empty() || filters.empty()) return;
  const std::size_t per_pass = stats.size() * filters.size();
  const std::size_t passes = std::max<std::size_t>(1, (1u << 16) / per_pass);
  std::vector<double> ns_per_call;
  std::uint64_t positives = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = NowNs();
    for (std::size_t p = 0; p < passes; ++p) {
      for (const Op& op : stats) {
        for (const auto& filter : filters) positives += filter.MayContain(op.path);
      }
    }
    ns_per_call.push_back(static_cast<double>(NowNs() - t0) /
                          static_cast<double>(passes * per_pass));
  }
  out.may_contain_ns = Percentile(ns_per_call, 0.5);
  // Every present path is in its home's filter: no positives means the
  // filters are not the live ones.
  if (positives == 0) out.errors.push_back("bloom replay: no positives");
}

void ReplayStorage(const ClusterRun& run, const std::vector<Op>& stats,
                   const std::string& side_dir, Replays& out) {
  ghba::StorageOptions options = run.config().storage;
  options.data_dir = side_dir;
  const auto& config = run.config();
  auto engine = ghba::StorageEngine::Open(
      options,
      ghba::CountingBloomFilter::ForCapacity(config.expected_files_per_mds,
                                             config.bits_per_file,
                                             config.seed ^ 0x5151),
      nullptr);
  if (!engine.ok()) {
    out.errors.push_back("side engine: " + engine.status().ToString());
    return;
  }
  ghba::FileMetadata md;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    md.inode = i + 1;
    const std::uint64_t t0 = NowNs();
    const Status s = (*engine)->LogInsert(stats[i].path, md);
    out.log_insert_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out.operations;
    if (!s.ok()) out.errors.push_back("LogInsert: " + s.ToString());
  }
  engine->reset();
  std::error_code ec;
  std::filesystem::remove_all(side_dir, ec);
}

std::uint64_t WalAppends(ghba::PrototypeCluster& cluster, Replays& out) {
  auto sample = TakeSample(cluster);
  if (!sample.ok()) {
    out.errors.push_back("stats: " + sample.status().ToString());
    return 0;
  }
  return sample->Sum(ghba::metrics_names::kStorageWalAppends);
}

void ReplayRenames(ghba::PrototypeCluster& cluster, unsigned renames,
                   Replays& out) {
  ghba::FileMetadata md;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (unsigned i = 0; i < renames; ++i) {
    const std::string src = "/ns/replay/s" + std::to_string(i);
    md.inode = 900000 + i;
    if (Status s = cluster.Insert(src, md); !s.ok()) {
      out.errors.push_back("replay create " + src + ": " + s.ToString());
      return;
    }
    pairs.emplace_back(src, "/ns/replay/r" + std::to_string(i));
  }
  const std::uint64_t wal_before = WalAppends(cluster, out);
  const auto pings = QuiesceFrames(cluster);
  if (!pings.ok()) return;
  const std::uint64_t frames_before = cluster.TotalFramesIn();
  for (const auto& [src, dst] : pairs) {
    const std::uint64_t t0 = NowNs();
    const Status s = cluster.Rename(src, dst);
    out.txn_drive_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++out.operations;
    if (!s.ok()) out.errors.push_back("replay rename " + src + ": " + s.ToString());
  }
  if (Status s = cluster.Quiesce(); !s.ok()) return;
  const std::uint64_t frames = cluster.TotalFramesIn() - frames_before;
  out.txn_frames_per_rename =
      Ratio(static_cast<double>(frames - std::min(frames, *pings)), renames);
  out.txn_wal_appends_per_rename =
      Ratio(static_cast<double>(WalAppends(cluster, out) - wal_before), renames);
  for (const auto& [src, dst] : pairs) {
    const auto gone = cluster.Lookup(src);
    const auto moved = cluster.Lookup(dst);
    if (!gone.ok() || gone->found || !moved.ok() || !moved->found) {
      out.errors.push_back("replay rename " + src + " -> " + dst +
                           ": endpoints wrong after commit");
    }
  }
}

}  // namespace

Replays RunReplays(ClusterRun& run, const std::vector<Op>& stats,
                   unsigned renames, const std::string& side_dir) {
  Replays out;
  ghba::PrototypeCluster& cluster = run.cluster();
  std::vector<ghba::MdsId> homes;
  ReplayLookups(cluster, stats, out, homes);
  ReplayLeases(cluster, stats, homes, out);
  ReplayBloom(cluster, stats, out);
  ReplayStorage(run, stats, side_dir, out);
  ReplayRenames(cluster, renames, out);
  return out;
}

}  // namespace perfbench

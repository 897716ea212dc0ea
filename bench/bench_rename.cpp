// Extension bench: directory-rename cost across schemes, plus the real
// cost of the v5 transactional rename.
//
// Section 1 — Table 1 scores schemes qualitatively on "Directory
// Operations" and Section 1.1 calls out Lazy Hybrid's weakness: "this
// overhead is sometimes prohibitively high when an upper directory is
// renamed". This bench makes the comparison quantitative: rename a
// progressively larger subtree and count files migrated and messages for
// pathname-hashed placement vs the Bloom-filter schemes (which only touch
// home-local filters).
//
// Section 2 — the prototype's WAL-journaled two-phase rename (v5): rename
// every file of a subtree through PrototypeCluster::Rename against durable
// (fsync=always) servers and report per-rename latency (p50/p99), wire
// messages, and WAL appends vs subtree size. This is the bench behind
// BENCH_rename.json.
//
//   $ bench_rename [--quick] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hash_cluster.hpp"
#include "core/metrics.hpp"
#include "hash/fnv.hpp"
#include "rpc/prototype_cluster.hpp"

using namespace ghba;
using namespace ghba::bench;

namespace {

template <typename Cluster>
void PopulateTree(Cluster& cluster, int dirs, int files_per_dir) {
  std::uint64_t inode = 1;
  for (int d = 0; d < dirs; ++d) {
    for (int f = 0; f < files_per_dir; ++f) {
      FileMetadata md;
      md.inode = inode++;
      (void)cluster.CreateFile("/proj/d" + std::to_string(d) + "/f" +
                                   std::to_string(f),
                               md, 0);
    }
  }
  cluster.FlushReplicas(0);
  cluster.metrics().Reset();
}

struct SchemeRow {
  std::uint64_t renamed = 0;
  std::uint64_t ghba_moved = 0;
  std::uint64_t hba_moved = 0;
  std::uint64_t hash_moved = 0;
  std::uint64_t hash_msgs = 0;
};

struct TxnRow {
  int subtree_files = 0;
  int cross_mds = 0;
  double p50_us = 0;
  double p99_us = 0;
  double msgs_per_rename = 0;
  double wal_appends_per_rename = 0;
  bool ok = true;
};

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(p * static_cast<double>(v.size() - 1)));
  return v[idx];
}

/// Sum of storage.wal_appends across every live server, via the
/// kStatsSnapshot RPC (the stats frames themselves never touch the WAL).
std::uint64_t TotalWalAppends(PrototypeCluster& cluster) {
  std::uint64_t total = 0;
  for (const MdsId id : cluster.AliveServers()) {
    auto snap = cluster.FetchStats(id);
    if (snap.ok()) {
      total += snap->metrics.CounterOr(metrics_names::kStorageWalAppends);
    }
  }
  return total;
}

/// Rename the `files`-file subtree /txn/d<k>/f* one file at a time through
/// the two-phase path and measure the per-rename cost.
TxnRow MeasureTxnRenames(PrototypeCluster& cluster, int subtree, int files) {
  TxnRow row;
  row.subtree_files = files;
  const std::string dir = "/txn/d" + std::to_string(subtree);

  std::vector<std::string> srcs, dsts;
  for (int f = 0; f < files; ++f) {
    srcs.push_back(dir + "/f" + std::to_string(f));
    dsts.push_back("/moved/d" + std::to_string(subtree) + "/f" +
                   std::to_string(f));
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(subtree) * 100000 + f;
    if (!cluster.Insert(srcs.back(), md).ok()) row.ok = false;
  }
  if (!cluster.PublishAll().ok()) row.ok = false;

  // How many of these renames actually cross MDSs: src's home from the
  // lookup protocol, dst's from the same hash placement Rename uses. Done
  // before the baselines so the probe frames are excluded from the deltas.
  const auto alive = cluster.AliveServers();
  for (int f = 0; f < files; ++f) {
    const auto r = cluster.Lookup(srcs[static_cast<std::size_t>(f)]);
    if (!r.ok() || !r->found) {
      row.ok = false;
      continue;
    }
    const MdsId dst_home =
        alive[Fnv1a64(dsts[static_cast<std::size_t>(f)]) % alive.size()];
    if (r->home != dst_home) ++row.cross_mds;
  }

  const std::uint64_t wal_before = TotalWalAppends(cluster);
  if (!cluster.Quiesce().ok()) row.ok = false;
  const std::uint64_t frames_before = cluster.TotalFramesIn();

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(files));
  for (int f = 0; f < files; ++f) {
    const double t0 = NowSec();
    if (!cluster
             .Rename(srcs[static_cast<std::size_t>(f)],
                     dsts[static_cast<std::size_t>(f)])
             .ok()) {
      row.ok = false;
      continue;
    }
    lat_us.push_back((NowSec() - t0) * 1e6);
  }

  if (!cluster.Quiesce().ok()) row.ok = false;
  const std::uint64_t frames_after = cluster.TotalFramesIn();
  const std::uint64_t wal_after = TotalWalAppends(cluster);

  const double n = std::max<double>(1.0, static_cast<double>(lat_us.size()));
  row.p50_us = Percentile(lat_us, 0.50);
  row.p99_us = Percentile(lat_us, 0.99);
  row.msgs_per_rename = static_cast<double>(frames_after - frames_before) / n;
  row.wal_appends_per_rename =
      static_cast<double>(wal_after - wal_before) / n;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  const int files_per_dir = quick ? 50 : 200;
  const int total_dirs = 32;

  PrintHeader("Extension: directory rename cost (Table 1, quantified)",
              "Rename /proj/d0..d<k> subtrees; pathname hashing re-homes\n"
              "~ (N-1)/N of the affected files, Bloom schemes migrate none.");

  std::printf("%-14s  %-12s %-16s %-16s\n", "files renamed",
              "G-HBA moved", "HBA moved", "hash moved (msgs)");

  std::vector<SchemeRow> scheme_rows;
  for (const int dirs : {1, 4, 16, 32}) {
    GhbaCluster ghba(BenchConfig(30, 6, 20000));
    GhbaCluster hba(GroupsOfOne(BenchConfig(30, 6, 20000)));
    HashPlacementCluster hash(BenchConfig(30, 6, 20000));
    PopulateTree(ghba, total_dirs, files_per_dir);
    PopulateTree(hba, total_dirs, files_per_dir);
    PopulateTree(hash, total_dirs, files_per_dir);

    SchemeRow row;
    ReconfigReport ghba_rep, hba_rep, hash_rep;
    for (int d = 0; d < dirs; ++d) {
      const std::string from = "/proj/d" + std::to_string(d) + "/";
      const std::string to = "/moved/d" + std::to_string(d) + "/";
      const auto r1 = ghba.RenamePrefix(from, to, 0, &ghba_rep);
      const auto r2 = hba.RenamePrefix(from, to, 0, &hba_rep);
      const auto r3 = hash.RenamePrefix(from, to, 0, &hash_rep);
      if (!r1.ok() || !r2.ok() || !r3.ok()) {
        std::printf("rename failed\n");
        return 1;
      }
      row.renamed += *r1;
    }
    row.ghba_moved = ghba_rep.files_migrated;
    row.hba_moved = hba_rep.files_migrated;
    row.hash_moved = hash_rep.files_migrated;
    row.hash_msgs = hash_rep.messages;
    std::printf("%-14llu  %-12llu %-16llu %llu (%llu)\n",
                static_cast<unsigned long long>(row.renamed),
                static_cast<unsigned long long>(row.ghba_moved),
                static_cast<unsigned long long>(row.hba_moved),
                static_cast<unsigned long long>(row.hash_moved),
                static_cast<unsigned long long>(row.hash_msgs));
    scheme_rows.push_back(row);
  }
  std::printf("\nExpected: hash-moved ~ 29/30 of files renamed; Bloom\n"
              "schemes always zero.\n\n");

  PrintHeader(
      "Transactional cross-MDS rename (v5 two-phase commit, durable)",
      "Per-file rename through PrototypeCluster::Rename with fsync=always;\n"
      "messages and WAL appends are cluster-wide deltas per rename.");

  const auto data_dir = std::filesystem::temp_directory_path() /
                        ("ghba-bench-rename-" + std::to_string(::getpid()));
  std::filesystem::remove_all(data_dir);

  ClusterConfig config;
  config.num_mds = 6;
  config.max_group_size = 3;
  config.expected_files_per_mds = 4000;
  config.lru_capacity = 1024;
  config.memory_budget_bytes = 256ULL << 20;
  config.seed = 2026;
  config.storage.data_dir = data_dir.string();
  config.storage.fsync = FsyncPolicy::kAlways;
  if (const auto s = ValidateClusterConfig(config); !s.ok()) {
    std::fprintf(stderr, "bad config: %s\n", s.ToString().c_str());
    return 2;
  }

  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  if (const auto s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("%14s %10s %10s %10s %12s %10s\n", "subtree files", "cross-MDS",
              "p50(us)", "p99(us)", "msgs/rename", "wal/rename");

  const std::vector<int> subtree_sizes =
      quick ? std::vector<int>{4, 8, 16} : std::vector<int>{8, 32, 128};
  std::vector<TxnRow> txn_rows;
  bool all_ok = true;
  for (std::size_t i = 0; i < subtree_sizes.size(); ++i) {
    TxnRow row =
        MeasureTxnRenames(cluster, static_cast<int>(i), subtree_sizes[i]);
    all_ok = all_ok && row.ok;
    std::printf("%14d %10d %10.1f %10.1f %12.1f %10.1f\n", row.subtree_files,
                row.cross_mds, row.p50_us, row.p99_us, row.msgs_per_rename,
                row.wal_appends_per_rename);
    txn_rows.push_back(row);
  }
  cluster.Stop();
  std::filesystem::remove_all(data_dir);
  if (!all_ok) {
    std::fprintf(stderr, "some transactional renames failed\n");
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"rename\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"schemes\": [\n");
    for (std::size_t i = 0; i < scheme_rows.size(); ++i) {
      const SchemeRow& r = scheme_rows[i];
      std::fprintf(f,
                   "    {\"files_renamed\": %llu, \"ghba_moved\": %llu, "
                   "\"hba_moved\": %llu, \"hash_moved\": %llu, "
                   "\"hash_msgs\": %llu}%s\n",
                   static_cast<unsigned long long>(r.renamed),
                   static_cast<unsigned long long>(r.ghba_moved),
                   static_cast<unsigned long long>(r.hba_moved),
                   static_cast<unsigned long long>(r.hash_moved),
                   static_cast<unsigned long long>(r.hash_msgs),
                   i + 1 < scheme_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"txn\": {\n");
    std::fprintf(f, "    \"mds\": %u,\n    \"fsync\": \"always\",\n",
                 config.num_mds);
    std::fprintf(f, "    \"series\": [\n");
    for (std::size_t i = 0; i < txn_rows.size(); ++i) {
      const TxnRow& r = txn_rows[i];
      std::fprintf(f,
                   "      {\"subtree_files\": %d, \"cross_mds\": %d, "
                   "\"p50_us\": %.1f, \"p99_us\": %.1f, "
                   "\"msgs_per_rename\": %.1f, "
                   "\"wal_appends_per_rename\": %.1f}%s\n",
                   r.subtree_files, r.cross_mds, r.p50_us, r.p99_us,
                   r.msgs_per_rename, r.wal_appends_per_rename,
                   i + 1 < txn_rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

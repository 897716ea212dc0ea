// Reconfiguration cost and live-lookup impact of the online adaptivity
// layer. This is the bench behind BENCH_reconfig.json:
//
//   * Cost series: for several group sizes M (N fixed), the real TCP
//     frames and wall time of one AddServer (join), one three-phase
//     MigrateReplica and one RemoveServer (graceful leave). Join/leave
//     touch the whole group (filter exchange), so the frame counts grow
//     with M; migration touches three servers and should stay nearly
//     flat.
//   * Latency series: lookup p50/p99 against a steady cluster vs. the
//     same load while replicas migrate back and forth continuously. The
//     dual-epoch window makes a racing lookup probe a superset of
//     placements — duplicate messages, never a wrong miss — so the bench
//     also counts wrong lookups, which must be zero.
//
//   $ bench_reconfig [--quick] [--files F] [--secs SEC] [--json PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rpc/prototype_cluster.hpp"

using namespace ghba;

namespace {

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

ClusterConfig ReconfigConfig(std::uint32_t n, std::uint32_t m) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = m;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 29;
  return c;
}

/// Populate `files` paths and remember each one's home for the
/// wrong-lookup audit.
bool BuildNamespace(PrototypeCluster& cluster, std::size_t files,
                    std::map<std::string, MdsId>* home_of) {
  std::vector<std::pair<std::string, FileMetadata>> batch;
  for (std::size_t i = 0; i < files; ++i) {
    FileMetadata md;
    md.inode = i;
    batch.emplace_back("/reconf/f" + std::to_string(i), md);
  }
  if (!cluster.InsertBatch(batch).ok()) return false;
  if (!cluster.PublishAll().ok()) return false;
  if (home_of != nullptr) {
    for (const auto& [path, md] : batch) {
      const auto r = cluster.Lookup(path);
      if (!r.ok() || !r->found) return false;
      (*home_of)[path] = r->home;
    }
  }
  return true;
}

/// The migration actors, derived from the live topology: server 0's group
/// holds a replica of the outsider `owner` on `from`; `to` is a different
/// member of the same group.
struct Actors {
  MdsId owner = kInvalidMds;
  MdsId from = kInvalidMds;
  MdsId to = kInvalidMds;
  bool ok = false;
};

Actors PickActors(PrototypeCluster& cluster) {
  Actors a;
  const auto view = cluster.MembershipOf(0);
  if (!view.ok()) return a;
  for (const MdsId id : cluster.AliveServers()) {
    if (std::find(view->begin(), view->end(), id) == view->end()) {
      a.owner = id;
      break;
    }
  }
  if (a.owner == kInvalidMds) return a;
  const auto from = cluster.HolderOf(0, a.owner);
  if (!from.ok()) return a;
  a.from = *from;
  for (const MdsId id : *view) {
    if (id != a.from) {
      a.to = id;
      break;
    }
  }
  a.ok = a.to != kInvalidMds;
  return a;
}

struct OpCost {
  double ms = 0;
  std::uint64_t messages = 0;
  bool ok = false;
};

struct CostRow {
  std::uint32_t n = 0;
  std::uint32_t m = 0;
  OpCost join;
  OpCost migrate;
  OpCost leave;
};

/// One cluster at group size `m`: measure join, migrate, leave in turn.
CostRow MeasureCosts(std::uint32_t n, std::uint32_t m, std::size_t files) {
  CostRow row;
  row.n = n;
  row.m = m;
  PrototypeCluster cluster(ReconfigConfig(n, m), ProtoScheme::kGhba);
  if (!cluster.Start().ok()) return row;
  if (!BuildNamespace(cluster, files, nullptr)) return row;

  {
    const double t0 = NowSec();
    const auto added = cluster.AddServer();
    row.join.ms = (NowSec() - t0) * 1e3;
    row.join.messages = added.ok() ? added->messages : 0;
    row.join.ok = added.ok();
  }
  {
    const Actors a = PickActors(cluster);
    if (a.ok) {
      const std::uint64_t frames_before = cluster.TotalFramesIn();
      const double t0 = NowSec();
      row.migrate.ok = cluster.MigrateReplica(a.owner, a.to).ok();
      row.migrate.ms = (NowSec() - t0) * 1e3;
      row.migrate.messages = cluster.TotalFramesIn() - frames_before;
    }
  }
  {
    const auto alive = cluster.AliveServers();
    const double t0 = NowSec();
    Result<PrototypeCluster::ReconfigOutcome> left =
        alive.empty() ? Result<PrototypeCluster::ReconfigOutcome>(
                            Status::NotFound("no servers"))
                      : cluster.RemoveServer(alive.back());
    row.leave.ok = left.ok();
    row.leave.ms = (NowSec() - t0) * 1e3;
    row.leave.messages = left.ok() ? left->messages : 0;
  }
  cluster.Stop();
  return row;
}

struct LatencyPhase {
  std::uint64_t lookups = 0;
  std::uint64_t wrong = 0;
  std::uint64_t migrations = 0;
  double p50_us = 0;
  double p99_us = 0;
};

/// Loop lookups over the namespace for `seconds`; every answer is checked
/// against the recorded home.
LatencyPhase LookupPhase(PrototypeCluster& cluster,
                         const std::map<std::string, MdsId>& home_of,
                         double seconds) {
  LatencyPhase phase;
  std::vector<double> lat_us;
  std::vector<const std::pair<const std::string, MdsId>*> entries;
  for (const auto& e : home_of) entries.push_back(&e);
  const double stop_at = NowSec() + seconds;
  std::size_t i = 0;
  while (NowSec() < stop_at) {
    const auto* entry = entries[i++ % entries.size()];
    const double t0 = NowSec();
    const auto r = cluster.Lookup(entry->first);
    lat_us.push_back((NowSec() - t0) * 1e6);
    ++phase.lookups;
    if (!r.ok() || !r->found || r->home != entry->second) ++phase.wrong;
  }
  phase.p50_us = Percentile(lat_us, 0.50);
  phase.p99_us = Percentile(lat_us, 0.99);
  return phase;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t files = 120;
  double secs = 1.5;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc) {
      files = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--secs") == 0 && i + 1 < argc) {
      secs = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--files F] [--secs SEC] "
                   "[--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) {
    files = std::min<std::size_t>(files, 48);
    secs = std::min(secs, 0.4);
  }

  std::printf("bench_reconfig: files=%zu secs=%.2f%s\n", files, secs,
              quick ? " (quick)" : "");

  // --- Cost vs. group size ------------------------------------------------
  const std::uint32_t n = quick ? 8 : 12;
  std::vector<std::uint32_t> group_sizes = quick
                                               ? std::vector<std::uint32_t>{2, 4}
                                               : std::vector<std::uint32_t>{2, 3, 6};
  std::printf("%4s %4s %14s %14s %14s\n", "N", "M", "join msgs(ms)",
              "migrate msgs(ms)", "leave msgs(ms)");
  std::vector<CostRow> costs;
  bool all_ok = true;
  for (const std::uint32_t m : group_sizes) {
    CostRow row = MeasureCosts(n, m, files);
    all_ok = all_ok && row.join.ok && row.migrate.ok && row.leave.ok;
    std::printf("%4u %4u %8llu(%4.0f) %8llu(%4.0f) %8llu(%4.0f)\n", row.n,
                row.m, static_cast<unsigned long long>(row.join.messages),
                row.join.ms,
                static_cast<unsigned long long>(row.migrate.messages),
                row.migrate.ms,
                static_cast<unsigned long long>(row.leave.messages),
                row.leave.ms);
    costs.push_back(row);
  }

  // --- Lookup latency: steady vs. under continuous migration --------------
  PrototypeCluster cluster(ReconfigConfig(6, 3), ProtoScheme::kGhba);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "latency cluster failed to start\n");
    return 1;
  }
  std::map<std::string, MdsId> home_of;
  if (!BuildNamespace(cluster, files, &home_of)) {
    std::fprintf(stderr, "latency namespace build failed\n");
    return 1;
  }

  LatencyPhase steady = LookupPhase(cluster, home_of, secs);

  const Actors a = PickActors(cluster);
  if (!a.ok) {
    std::fprintf(stderr, "no migration actors in latency cluster\n");
    return 1;
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> migrations{0};
  // Bounce one outsider replica between two group members: each pass is a
  // full three-phase handoff with its own epoch bump.
  std::thread churner([&] {
    MdsId target = a.to;
    while (!stop.load(std::memory_order_relaxed)) {
      if (cluster.MigrateReplica(a.owner, target).ok()) {
        migrations.fetch_add(1, std::memory_order_relaxed);
      }
      target = target == a.to ? a.from : a.to;
    }
  });
  LatencyPhase migrating = LookupPhase(cluster, home_of, secs);
  stop.store(true, std::memory_order_relaxed);
  churner.join();
  migrating.migrations = migrations.load();
  cluster.Stop();

  std::printf("steady:    %llu lookups, p50=%.1fus p99=%.1fus, wrong=%llu\n",
              static_cast<unsigned long long>(steady.lookups), steady.p50_us,
              steady.p99_us, static_cast<unsigned long long>(steady.wrong));
  std::printf("migrating: %llu lookups over %llu migrations, p50=%.1fus "
              "p99=%.1fus, wrong=%llu\n",
              static_cast<unsigned long long>(migrating.lookups),
              static_cast<unsigned long long>(migrating.migrations),
              migrating.p50_us, migrating.p99_us,
              static_cast<unsigned long long>(migrating.wrong));

  const std::uint64_t wrong_total = steady.wrong + migrating.wrong;
  if (!all_ok) std::fprintf(stderr, "some reconfiguration ops failed\n");
  if (wrong_total != 0) std::fprintf(stderr, "wrong lookups observed\n");
  if (migrating.migrations == 0) {
    std::fprintf(stderr, "no migration completed during the latency phase\n");
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"reconfig\",\n");
    std::fprintf(f, "  \"files\": %zu,\n", files);
    std::fprintf(f, "  \"cost_vs_group_size\": [\n");
    for (std::size_t i = 0; i < costs.size(); ++i) {
      const CostRow& r = costs[i];
      std::fprintf(
          f,
          "    {\"n\": %u, \"m\": %u, "
          "\"join_messages\": %llu, \"join_ms\": %.2f, "
          "\"migrate_messages\": %llu, \"migrate_ms\": %.2f, "
          "\"leave_messages\": %llu, \"leave_ms\": %.2f}%s\n",
          r.n, r.m, static_cast<unsigned long long>(r.join.messages),
          r.join.ms, static_cast<unsigned long long>(r.migrate.messages),
          r.migrate.ms, static_cast<unsigned long long>(r.leave.messages),
          r.leave.ms, i + 1 < costs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"lookup_latency\": {\n"
                 "    \"steady\": {\"lookups\": %llu, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f},\n"
                 "    \"during_migration\": {\"lookups\": %llu, "
                 "\"migrations\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f},\n"
                 "    \"wrong_lookups\": %llu\n  }\n}\n",
                 static_cast<unsigned long long>(steady.lookups),
                 steady.p50_us, steady.p99_us,
                 static_cast<unsigned long long>(migrating.lookups),
                 static_cast<unsigned long long>(migrating.migrations),
                 migrating.p50_us, migrating.p99_us,
                 static_cast<unsigned long long>(wrong_total));
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return (all_ok && wrong_total == 0 && migrating.migrations > 0) ? 0 : 1;
}

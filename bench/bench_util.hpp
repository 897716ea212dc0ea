// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints (a) the scaled-down experiment parameters it
// ran with (the substitutions DESIGN.md documents), and (b) the same rows /
// series the paper's figure or table reports. Pass --quick to shrink the
// workload for smoke runs.
#pragma once

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/ghba_cluster.hpp"
#include "core/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"

namespace ghba::bench {

inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

inline void PrintHeader(const std::string& what, const std::string& notes) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("==============================================================\n");
}

/// A workload profile scaled so the cluster starts with about
/// `target_initial_files` files regardless of trace or TIF (the paper's
/// absolute populations would take hours to replay; the metrics depend on
/// ratios, which are preserved — see DESIGN.md).
inline WorkloadProfile ScaledProfile(const std::string& trace_name,
                                     std::uint32_t tif,
                                     std::uint64_t target_initial_files) {
  // Bench binaries pass compile-time trace names; an unknown name is a
  // programming error, so fail fast instead of propagating the Status.
  auto profile = ProfileByName(trace_name);
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    std::abort();
  }
  WorkloadProfile p = *std::move(profile);
  const double shrink = static_cast<double>(target_initial_files) /
                        (static_cast<double>(p.total_files) * tif);
  const double active_ratio = static_cast<double>(p.active_files) /
                              static_cast<double>(p.total_files);
  p.total_files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p.total_files * shrink));
  p.active_files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p.total_files * active_ratio));
  return p;
}

/// Default cluster config for the simulation benches.
inline ClusterConfig BenchConfig(std::uint32_t n, std::uint32_t m,
                                 std::uint64_t expected_files_per_mds,
                                 std::uint64_t seed = 42) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = m;
  c.expected_files_per_mds = expected_files_per_mds;
  c.lru_capacity = 2048;
  c.publish_after_mutations = 128;
  c.memory_budget_bytes = 1ULL << 30;  // ample unless a bench overrides
  c.seed = seed;
  return c;
}

/// `c` with groups of one: GhbaCluster on it is HBA, or BFA with L1 off.
inline ClusterConfig GroupsOfOne(ClusterConfig c) {
  c.max_group_size = 1;
  c.initial_group_size = 1;
  return c;
}

/// Paper Fig. 7's observed optima, used where a bench needs "the" M for a
/// given N without re-running the optimizer.
inline std::uint32_t PaperOptimalM(std::uint32_t n) {
  if (n <= 10) return 3;
  if (n <= 30) return 6;
  if (n <= 60) return 7;
  if (n <= 100) return 9;
  if (n <= 150) return 11;
  return 14;
}

/// Populate + replay helper; returns the replay result. `warmup_ops` are
/// replayed first and excluded from the metrics (the paper's multi-billion
/// op replays run with warm LRU arrays; short runs must warm them
/// explicitly).
inline ReplayResult RunReplay(MetadataCluster& cluster,
                              const WorkloadProfile& profile,
                              std::uint32_t tif, std::uint64_t ops,
                              std::uint64_t checkpoint_every = 0,
                              std::uint64_t seed = 7,
                              std::uint64_t warmup_ops = 0) {
  IntensifiedTrace trace(profile, tif, seed);
  ReplaySimulator sim(cluster);
  sim.Populate(trace);
  if (warmup_ops > 0) {
    (void)sim.Replay(trace, warmup_ops);
    cluster.metrics().Reset();
  }
  return sim.Replay(trace, ops, checkpoint_every);
}

}  // namespace ghba::bench

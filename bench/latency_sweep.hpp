// Shared driver for Figures 8-10: average metadata-operation latency as a
// function of operation count, HBA vs G-HBA, at three memory budgets.
//
// The paper's budgets (e.g. 1.2GB/800MB/500MB for HP) are absolute numbers
// for its trace scale; what matters is the *ratio* of the budget to the
// full HBA replica image (N replicas per MDS). We reproduce the ratios:
// the largest budget fits the full image (HBA wins slightly — everything
// is local), the smaller ones force HBA to spill replicas to disk while
// G-HBA's theta-replica set still fits (G-HBA wins big).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace ghba::bench {

struct MemoryLevel {
  std::string label;     ///< the paper's label, e.g. "1.2GB"
  double image_fraction; ///< budget / full-HBA-image bytes
};

inline void RunLatencyFigure(const std::string& figure,
                             const std::string& trace_name,
                             const std::vector<MemoryLevel>& levels,
                             std::uint64_t initial_files, std::uint64_t ops,
                             std::uint64_t checkpoint_every) {
  const std::uint32_t n = 30;
  const std::uint32_t m = PaperOptimalM(n);
  const std::uint32_t tif = 4;

  PrintHeader(
      figure + ": average latency vs operation count (" + trace_name +
          " trace), HBA vs G-HBA",
      "Budgets are the paper's labels mapped to fractions of the full HBA\n"
      "replica image (see DESIGN.md). Expected shape: with ample memory\n"
      "HBA is slightly ahead; as the budget shrinks HBA spills replicas to\n"
      "disk and its latency climbs while G-HBA stays flat.");

  const auto profile = ScaledProfile(trace_name, tif, initial_files);
  // Full HBA image per MDS: every file's 16 filter bits.
  const auto full_image_bytes = initial_files * 2;

  std::printf("%-10s %-8s %-10s", "scheme", "budget", "ops(so far)");
  std::printf("  %-14s %-12s %-14s %-12s\n", "avg lat (ms)", "p99 (ms)",
              "window lat", "disk probes");

  for (const auto& level : levels) {
    const auto budget = static_cast<std::uint64_t>(
        level.image_fraction * static_cast<double>(full_image_bytes));
    for (const bool use_ghba : {false, true}) {
      auto config = BenchConfig(n, m, 2 * initial_files / n);
      config.memory_budget_bytes = budget;
      const auto cluster = std::make_unique<GhbaCluster>(
          use_ghba ? config : GroupsOfOne(config));
      // Warm the LRU arrays first so the curve shows the memory-pressure
      // trend, not the cache cold-start.
      const auto result = RunReplay(*cluster, profile, tif, ops,
                                    checkpoint_every, 7, /*warmup_ops=*/ops / 2);
      for (const auto& cp : result.checkpoints) {
        if (cp.ops == 0) continue;
        std::printf("%-10s %-8s %-10llu  %-14.3f %-12.3f %-14.3f %-12llu\n",
                    cluster->SchemeName().c_str(), level.label.c_str(),
                    static_cast<unsigned long long>(cp.ops),
                    cp.avg_latency_ms, cp.p99_latency_ms,
                    cp.window_latency_ms,
                    static_cast<unsigned long long>(cp.disk_probes));
      }
    }
    std::printf("\n");
  }
}

}  // namespace ghba::bench

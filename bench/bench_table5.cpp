// Table 5: per-MDS memory requirement of the lookup structures, normalized
// to a pure Bloom Filter Array with 8 bits/file (BFA8), for N = 20..100.
//
// BFA8 / BFA16: every MDS holds all N filters at 8 / 16 bits per file.
// HBA: BFA8 plus the LRU array. G-HBA: theta + 1 filters plus LRU + IDBFA,
// with M set to the per-N optimum — which is why its ratio ~ 1/M falls as
// N grows.
#include <cstdio>

#include "bench_util.hpp"

using namespace ghba;
using namespace ghba::bench;

namespace {

std::uint64_t AvgLookupBytes(MetadataCluster& cluster) {
  std::uint64_t total = 0;
  std::uint32_t count = 0;
  auto& base = dynamic_cast<ClusterBase&>(cluster);
  for (const MdsId id : base.alive()) {
    total += cluster.LookupStateBytes(id);
    ++count;
  }
  return count ? total / count : 0;
}

/// G-HBA at group size `m`; HBA and BFA are `m = 1` with L1 on and off.
std::uint64_t MeasureScheme(std::uint32_t n, std::uint32_t m,
                            double bits_per_file, std::uint64_t files,
                            const WorkloadProfile& profile, std::uint32_t tif,
                            bool use_lru = true) {
  auto config = BenchConfig(n, m, 2 * files / n);
  config.bits_per_file = bits_per_file;
  GhbaCluster cluster(config, ReplicaPlacement::kLeastLoaded, use_lru);
  IntensifiedTrace trace(profile, tif, 17);
  ReplaySimulator sim(cluster);
  sim.Populate(trace);
  return AvgLookupBytes(cluster);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  // Large namespace so the fixed-size structures (LRU, IDBFA) are as
  // negligible relative to the filter bytes as they are at paper scale.
  const std::uint64_t files = quick ? 80000 : 300000;
  const std::uint32_t tif = 4;
  const auto profile = ScaledProfile("HP", tif, files);

  PrintHeader("Table 5: relative lookup-memory per MDS, normalized to BFA8",
              "HP workload. Paper reference row (N=100):\n"
              "BFA8 1.0, BFA16 2.0, HBA 1.0010, G-HBA 0.1121.");

  std::printf("%-8s %-6s  %-8s %-8s %-8s %-8s\n", "servers", "M", "BFA8",
              "BFA16", "HBA", "G-HBA");
  for (std::uint32_t n = 20; n <= 100; n += 20) {
    const std::uint32_t m = PaperOptimalM(n);
    const auto bfa8 = MeasureScheme(n, 1, 8.0, files, profile, tif,
                                    /*use_lru=*/false);
    const auto bfa16 = MeasureScheme(n, 1, 16.0, files, profile, tif,
                                     /*use_lru=*/false);
    const auto hba = MeasureScheme(n, 1, 8.0, files, profile, tif);
    const auto ghba = MeasureScheme(n, m, 8.0, files, profile, tif);
    const double base = static_cast<double>(bfa8);
    std::printf("%-8u %-6u  %-8.4f %-8.4f %-8.4f %-8.4f\n", n, m, 1.0,
                bfa16 / base, hba / base, ghba / base);
  }
  return 0;
}

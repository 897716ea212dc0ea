// Trace replay: drive a metadata cluster with a synthetic HP/INS/RES
// workload and compare schemes side by side.
//
//   $ ./trace_replay [trace] [scheme] [num_mds] [ops]
//     trace  = hp | ins | res            (default hp)
//     scheme = ghba | hba | bfa | hash   (default ghba)
//     num_mds, ops                       (defaults 30, 50000)
//
// Prints the per-level hit distribution, latency summary, and message
// counts — the quantities the paper's evaluation revolves around.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/ghba_cluster.hpp"
#include "core/hash_cluster.hpp"
#include "core/simulator.hpp"

using namespace ghba;

int main(int argc, char** argv) {
  const std::string trace_name = argc > 1 ? argv[1] : "hp";
  const std::string scheme = argc > 2 ? argv[2] : "ghba";
  const auto num_mds =
      static_cast<std::uint32_t>(argc > 3 ? std::atoi(argv[3]) : 30);
  const auto ops = static_cast<std::uint64_t>(
      argc > 4 ? std::atoll(argv[4]) : 50000);

  const auto profile_or = ProfileByName(trace_name);
  if (!profile_or.ok()) {
    std::fprintf(stderr, "%s\n", profile_or.status().ToString().c_str());
    return 2;
  }
  WorkloadProfile profile = *profile_or;
  // Keep the example fast: a modest namespace per subtrace.
  profile.total_files = 20000;
  profile.active_files = 6000;
  const std::uint32_t tif = 4;

  ClusterConfig config;
  config.num_mds = num_mds;
  config.max_group_size = 6;
  config.expected_files_per_mds = 2 * profile.total_files * tif / num_mds;
  config.lru_capacity = 2048;
  config.publish_after_mutations = 128;
  config.seed = 7;

  std::unique_ptr<MetadataCluster> cluster;
  if (scheme == "ghba") {
    cluster = std::make_unique<GhbaCluster>(config);
  } else if (scheme == "hba" || scheme == "bfa") {
    // HBA and BFA are G-HBA with groups of one, L1 on and off.
    config.max_group_size = 1;
    cluster = std::make_unique<GhbaCluster>(
        config, ReplicaPlacement::kLeastLoaded, /*use_lru=*/scheme == "hba");
  } else if (scheme == "hash") {
    cluster = std::make_unique<HashPlacementCluster>(config);
  } else {
    std::printf("unknown scheme '%s' (use ghba|hba|bfa|hash)\n",
                scheme.c_str());
    return 1;
  }

  std::printf("replaying %llu %s ops (TIF=%u) against %s with %u MDSs...\n",
              static_cast<unsigned long long>(ops), profile.name.c_str(), tif,
              cluster->SchemeName().c_str(), num_mds);

  IntensifiedTrace trace(profile, tif, config.seed);
  ReplaySimulator sim(*cluster);
  sim.Populate(trace);
  const auto result = sim.Replay(trace, ops, /*checkpoint_every=*/ops / 5);

  std::printf("\n%-12s %-14s %-14s\n", "ops", "avg lat (ms)", "window (ms)");
  for (const auto& cp : result.checkpoints) {
    std::printf("%-12llu %-14.3f %-14.3f\n",
                static_cast<unsigned long long>(cp.ops), cp.avg_latency_ms,
                cp.window_latency_ms);
  }

  const auto& m = cluster->metrics();
  const auto total = m.levels.total();
  std::printf("\nlookups: %llu (%llu not found)\n",
              static_cast<unsigned long long>(result.lookups),
              static_cast<unsigned long long>(result.not_found));
  std::printf("levels:  L1 %.1f%%  L2 %.1f%%  L3 %.1f%%  L4 %.1f%%  miss %.1f%%\n",
              100.0 * m.levels.Fraction(m.levels.l1),
              100.0 * m.levels.Fraction(m.levels.l2),
              100.0 * m.levels.Fraction(m.levels.l3),
              100.0 * m.levels.Fraction(m.levels.l4),
              100.0 * m.levels.Fraction(m.levels.miss));
  std::printf("latency: %s\n", m.lookup_latency_ms.Summary().c_str());
  std::printf("messages: %llu lookup, %llu update (%llu publishes), "
              "false routes: %llu\n",
              static_cast<unsigned long long>(m.lookup_messages),
              static_cast<unsigned long long>(m.update_messages),
              static_cast<unsigned long long>(m.publishes),
              static_cast<unsigned long long>(m.false_routes));
  (void)total;
  return 0;
}

// Figure 15: number of messages exchanged while adding new nodes to the
// prototype (cumulative over 1..10 insertions), HBA vs G-HBA, measured as
// real frames received across all servers. The last column is the G-HBA
// group count after each join, which names a jump caused by a group split.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "rpc/prototype_cluster.hpp"

using namespace ghba;
using namespace ghba::bench;

namespace {

/// Cumulative frames after each join, and the group count it left behind
/// (a jump in frames that coincides with one more group is a split).
struct JoinSeries {
  std::vector<std::uint64_t> cumulative;
  std::vector<std::size_t> groups;
};

JoinSeries MeasureJoins(ProtoScheme scheme, std::uint32_t n, std::uint32_t m,
                        int joins) {
  ClusterConfig config = BenchConfig(n, m, 500);
  PrototypeCluster cluster(config, scheme);
  JoinSeries series;
  if (!cluster.Start().ok()) return series;
  std::uint64_t total = 0;
  for (int i = 0; i < joins; ++i) {
    const auto joined = cluster.AddServer();
    if (!joined.ok()) break;
    total += joined->messages;
    series.cumulative.push_back(total);
    series.groups.push_back(cluster.NumGroups());
  }
  cluster.Stop();
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = QuickMode(argc, argv);
  const std::uint32_t n = quick ? 24 : 60;
  const std::uint32_t m = 7;
  const int joins = 10;

  PrintHeader("Figure 15: cumulative messages while adding 1..10 new nodes "
              "(real TCP frames)",
              "Paper reference (60 nodes, M=7): HBA ~ 1200 messages after 10\n"
              "insertions (each newcomer exchanges filters with everyone);\n"
              "G-HBA ~ 200 (one holder per group + light-weight migration).");

  const auto hba = MeasureJoins(ProtoScheme::kHba, n, m, joins);
  const auto ghba = MeasureJoins(ProtoScheme::kGhba, n, m, joins);
  const auto at = [](const auto& v, int i) {
    return static_cast<unsigned long long>(
        i < static_cast<int>(v.size()) ? v[i] : 0);
  };

  std::printf("%-12s %-14s %-14s %-14s\n", "new nodes", "HBA msgs",
              "G-HBA msgs", "G-HBA groups");
  for (int i = 0; i < joins; ++i) {
    std::printf("%-12d %-14llu %-14llu %-14llu\n", i + 1, at(hba.cumulative, i),
                at(ghba.cumulative, i), at(ghba.groups, i));
  }
  return 0;
}

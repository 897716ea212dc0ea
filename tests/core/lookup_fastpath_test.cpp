// Digest-once contract for the lookup fast path: a single Lookup computes at
// most one Murmur3_128 digest per *distinct filter seed*, no matter how many
// filters it probes or how deep in the hierarchy it goes. The clusters use
// two seeds — the LRU array's (0x1111 ^ config.seed) and the shared
// local-filter/replica seed (config.seed ^ 0x5151) — so the ceiling is 2.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/ghba_cluster.hpp"
#include "hash/murmur3.hpp"

namespace ghba {
namespace {

ClusterConfig FastpathConfig() {
  ClusterConfig c;
  c.num_mds = 12;
  c.max_group_size = 3;
  c.expected_files_per_mds = 512;
  c.lru_capacity = 64;
  c.publish_after_mutations = 1u << 30;  // publish only via FlushReplicas
  c.seed = 42;
  return c;
}

template <typename Cluster>
void Populate(Cluster& cluster, int files) {
  for (int i = 0; i < files; ++i) {
    ASSERT_TRUE(
        cluster.CreateFile("/fp/f" + std::to_string(i), FileMetadata{}, 0)
            .ok());
  }
  cluster.FlushReplicas(0);
}

std::uint64_t DigestsDuring(const std::function<void()>& op) {
  const std::uint64_t before = Murmur3DigestCount();
  op();
  return Murmur3DigestCount() - before;
}

TEST(LookupFastpathTest, GhbaMissReachingL4HashesOncePerSeed) {
  GhbaCluster cluster(FastpathConfig());
  Populate(cluster, 200);
  // An absent path falls through L1 (zero or false hit), L2, the L3 group
  // multicast and the L4 global multicast — dozens of filter probes across
  // 12 nodes — yet may only hash twice: once per distinct seed.
  for (int i = 0; i < 16; ++i) {
    const std::string path = "/fp/absent" + std::to_string(i);
    LookupOutcome r;
    const auto digests = DigestsDuring([&] { r = cluster.Lookup(path, 0); });
    EXPECT_FALSE(r.found) << path;
    EXPECT_LE(digests, 2u) << path;
  }
}

TEST(LookupFastpathTest, GhbaHitHashesOncePerSeed) {
  GhbaCluster cluster(FastpathConfig());
  Populate(cluster, 200);
  // Found paths additionally Touch the entry node's LRU (and cooperative
  // caches), but those reuse the same LRU seed, so the bound is unchanged.
  for (int i = 0; i < 32; ++i) {
    const std::string path = "/fp/f" + std::to_string(i * 5);
    LookupOutcome r;
    const auto digests = DigestsDuring([&] { r = cluster.Lookup(path, 0); });
    EXPECT_TRUE(r.found) << path;
    EXPECT_LE(digests, 2u) << path;
  }
}

TEST(LookupFastpathTest, HbaLookupHashesOncePerSeed) {
  auto config = FastpathConfig();
  config.max_group_size = 1;  // HBA: G-HBA with groups of one
  GhbaCluster cluster(config);
  Populate(cluster, 200);
  for (int i = 0; i < 16; ++i) {
    LookupOutcome hit;
    EXPECT_LE(DigestsDuring([&] {
                hit = cluster.Lookup("/fp/f" + std::to_string(i * 7), 0);
              }),
              2u);
    EXPECT_TRUE(hit.found);
    LookupOutcome miss;
    EXPECT_LE(DigestsDuring([&] {
                miss = cluster.Lookup("/fp/no" + std::to_string(i), 0);
              }),
              2u);
    EXPECT_FALSE(miss.found);
  }
}

TEST(LookupFastpathTest, RepeatLookupsStayBounded) {
  // A warmed LRU must not change the bound: the L1 unique-hit path plus
  // verification plus Touch still hashes at most twice.
  GhbaCluster cluster(FastpathConfig());
  Populate(cluster, 64);
  const std::string path = "/fp/f7";
  (void)cluster.Lookup(path, 0);  // warm caches
  for (int i = 0; i < 8; ++i) {
    LookupOutcome r;
    EXPECT_LE(DigestsDuring([&] { r = cluster.Lookup(path, 0); }), 2u);
    EXPECT_TRUE(r.found);
  }
}

}  // namespace
}  // namespace ghba

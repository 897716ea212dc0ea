// Micro-benchmarks (google-benchmark) for the hot data structures: hashing,
// Bloom-filter add/probe, array queries, LRU maintenance, serialization.
// These are the operations the paper argues run "at memory speed"; the
// numbers here substantiate that claim on the reproduction's actual code.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bloom/bloom_filter.hpp"
#include "bloom/bloom_filter_array.hpp"
#include "bloom/compressed.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "bloom/lru_bloom_array.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/ghba_cluster.hpp"
#include "hash/murmur3.hpp"
#include "hash/xx64.hpp"
#include "mds/store.hpp"
#include "storage/engine.hpp"
#include "storage/wal.hpp"

namespace ghba {
namespace {

std::vector<std::string> MakePaths(std::size_t count) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    paths.push_back("/t0/d" + std::to_string(i % 64) + "/f" +
                    std::to_string(i));
  }
  return paths;
}

void BM_Murmur3(benchmark::State& state) {
  const auto paths = MakePaths(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Murmur3_128(paths[i++ & 1023]));
  }
}
BENCHMARK(BM_Murmur3);

void BM_Xx64(benchmark::State& state) {
  const auto paths = MakePaths(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Xx64(paths[i++ & 1023]));
  }
}
BENCHMARK(BM_Xx64);

void BM_BloomAdd(benchmark::State& state) {
  auto bf = BloomFilter::ForCapacity(1 << 20, 16.0);
  const auto paths = MakePaths(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    bf.Add(paths[i++ & 4095]);
  }
}
BENCHMARK(BM_BloomAdd);

void BM_BloomProbeHit(benchmark::State& state) {
  auto bf = BloomFilter::ForCapacity(100000, 16.0);
  const auto paths = MakePaths(4096);
  for (const auto& p : paths) bf.Add(p);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContain(paths[i++ & 4095]));
  }
}
BENCHMARK(BM_BloomProbeHit);

void BM_BloomProbeMiss(benchmark::State& state) {
  auto bf = BloomFilter::ForCapacity(100000, 16.0);
  const auto paths = MakePaths(4096);
  for (const auto& p : paths) bf.Add(p);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContain("/absent/" + std::to_string(i++)));
  }
}
BENCHMARK(BM_BloomProbeMiss);

void BM_CountingAddRemove(benchmark::State& state) {
  auto cbf = CountingBloomFilter::ForCapacity(1 << 16, 16.0);
  const auto paths = MakePaths(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    cbf.Add(paths[i & 1023]);
    // Hot loop under measurement; the key was just added so the remove
    // cannot fail, and branching on it would perturb the timing.
    (void)cbf.Remove(paths[i & 1023]);
    ++i;
  }
}
BENCHMARK(BM_CountingAddRemove);

// The paper's L2 probe: an array of `theta` replicas queried per lookup.
void BM_ArrayQuery(benchmark::State& state) {
  const auto theta = static_cast<std::uint32_t>(state.range(0));
  BloomFilterArray array;
  const auto paths = MakePaths(4096);
  for (std::uint32_t f = 0; f < theta; ++f) {
    auto bf = BloomFilter::ForCapacity(10000, 16.0, 1234);
    for (std::size_t i = f; i < paths.size(); i += theta) bf.Add(paths[i]);
    (void)array.AddEntry(f, std::move(bf));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.Query(paths[i++ & 4095]));
  }
}
BENCHMARK(BM_ArrayQuery)->Arg(4)->Arg(10)->Arg(30)->Arg(100);

void BM_LruTouchQuery(benchmark::State& state) {
  LruBloomArray::Options options;
  options.capacity = 4096;
  LruBloomArray lru(options);
  const auto paths = MakePaths(8192);
  std::size_t i = 0;
  for (auto _ : state) {
    lru.Touch(paths[i & 8191], static_cast<MdsId>(i % 30));
    benchmark::DoNotOptimize(lru.Query(paths[(i / 2) & 8191]));
    ++i;
  }
}
BENCHMARK(BM_LruTouchQuery);

void BM_CompressSparseFilter(benchmark::State& state) {
  auto bf = BloomFilter::ForCapacity(100000, 16.0);
  for (int i = 0; i < 200; ++i) bf.Add("sparse" + std::to_string(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompressFilter(bf));
  }
}
BENCHMARK(BM_CompressSparseFilter);

// End-to-end lookup throughput through the full query hierarchy. These are
// the headline numbers for the digest-once fast path: a lookup probes many
// filters (L1 homes, L2 replicas, per-member L3 probes, per-MDS L4 screens)
// that should all be served by one Murmur3 digest per distinct seed.
ClusterConfig LookupBenchConfig() {
  ClusterConfig c;
  c.num_mds = 30;
  c.max_group_size = 6;
  c.expected_files_per_mds = 4096;
  c.lru_capacity = 1024;
  c.publish_after_mutations = 1u << 30;  // publish once, via FlushReplicas
  return c;
}

void BM_GhbaLookupHit(benchmark::State& state) {
  const auto paths = MakePaths(16384);
  GhbaCluster cluster(LookupBenchConfig());
  for (const auto& p : paths) (void)cluster.CreateFile(p, FileMetadata{}, 0);
  cluster.FlushReplicas(0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Lookup(paths[i++ & 16383], 0));
  }
}
BENCHMARK(BM_GhbaLookupHit);

void BM_GhbaLookupMiss(benchmark::State& state) {
  const auto paths = MakePaths(16384);
  GhbaCluster cluster(LookupBenchConfig());
  for (const auto& p : paths) (void)cluster.CreateFile(p, FileMetadata{}, 0);
  cluster.FlushReplicas(0);
  // Absent paths walk all four levels and screen every alive MDS at L4.
  std::vector<std::string> absent;
  absent.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    absent.push_back("/absent/d" + std::to_string(i % 64) + "/f" +
                     std::to_string(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Lookup(absent[i++ & 4095], 0));
  }
}
BENCHMARK(BM_GhbaLookupMiss);

void BM_HbaLookupMiss(benchmark::State& state) {
  const auto paths = MakePaths(16384);
  auto config = LookupBenchConfig();
  config.max_group_size = 1;  // HBA is G-HBA with groups of one
  GhbaCluster cluster(config);
  for (const auto& p : paths) (void)cluster.CreateFile(p, FileMetadata{}, 0);
  cluster.FlushReplicas(0);
  std::vector<std::string> absent;
  absent.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    absent.push_back("/absent/d" + std::to_string(i % 64) + "/f" +
                     std::to_string(i));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.Lookup(absent[i++ & 4095], 0));
  }
}
BENCHMARK(BM_HbaLookupMiss);

// L1 probe cost after heavy home churn. Entries cycle through many distinct
// homes in blocks so earlier homes' filters drain entirely; probe cost must
// track the *live* home count, not every home ever cached.
void BM_LruChurnedQuery(benchmark::State& state) {
  LruBloomArray::Options options;
  options.capacity = 1024;
  LruBloomArray lru(options);
  std::vector<std::string> keys;
  keys.reserve(64 * 1024);
  for (std::size_t block = 0; block < 64; ++block) {
    for (std::size_t i = 0; i < 1024; ++i) {
      keys.push_back("/churn/b" + std::to_string(block) + "/f" +
                     std::to_string(i));
      lru.Touch(keys.back(), static_cast<MdsId>(block * 8 + i % 8));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lru.Query(keys[i++ & (64 * 1024 - 1)]));
  }
}
BENCHMARK(BM_LruChurnedQuery);

// The paper's deployment case: every replica shares one geometry/seed, so a
// single digest should serve the entire array.
void BM_ArrayQueryShared(benchmark::State& state) {
  const auto theta = static_cast<std::uint32_t>(state.range(0));
  BloomFilterArray array;
  const auto paths = MakePaths(4096);
  for (std::uint32_t f = 0; f < theta; ++f) {
    auto bf = BloomFilter::ForCapacity(10000, 16.0, 1234);
    for (std::size_t i = f; i < paths.size(); i += theta) bf.Add(paths[i]);
    (void)array.AddEntry(f, std::move(bf));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.QueryShared(paths[i++ & 4095]));
  }
}
BENCHMARK(BM_ArrayQueryShared)->Arg(4)->Arg(10)->Arg(30)->Arg(100);

void BM_FilterSerialize(benchmark::State& state) {
  auto bf = BloomFilter::ForCapacity(100000, 16.0);
  const auto paths = MakePaths(4096);
  for (const auto& p : paths) bf.Add(p);
  for (auto _ : state) {
    ByteWriter w;
    bf.Serialize(w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_FilterSerialize);

// Durable-path cost per mutation: one WAL append+commit under each fsync
// policy. kAlways pays an fsync per op; kNever shows the pure
// framing+write cost.
void BM_StorageWalAppend(benchmark::State& state) {
  const auto policy = static_cast<FsyncPolicy>(state.range(0));
  const std::string dir =
      "/tmp/ghba_bench_wal_" + std::to_string(state.range(0));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StorageOptions options;
  options.fsync = policy;
  options.fsync_interval_appends = 32;
  auto wal = WriteAheadLog::Open(dir + "/wal.log", options, 0);
  if (!wal.ok()) {
    state.SkipWithError("WAL open failed");
    return;
  }
  const auto paths = MakePaths(1024);
  FileMetadata md;
  md.inode = 1;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    WalRecord record;
    record.op = WalOp::kInsert;
    record.seq = ++seq;
    record.path = paths[seq & 1023];
    record.metadata = md;
    benchmark::DoNotOptimize(wal->Append(record).ok() && wal->Commit().ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(seq));
  state.counters["fsyncs"] = static_cast<double>(wal->fsyncs());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StorageWalAppend)
    ->Arg(static_cast<int>(FsyncPolicy::kAlways))
    ->Arg(static_cast<int>(FsyncPolicy::kInterval))
    ->Arg(static_cast<int>(FsyncPolicy::kNever));

// Full checkpoint of an N-file store (snapshot encode + atomic write +
// WAL reset). This bounds how often the engine can afford to truncate its
// log, and thereby the recovery replay tail.
void BM_CheckpointWrite(benchmark::State& state) {
  const auto files = static_cast<std::size_t>(state.range(0));
  const std::string dir =
      "/tmp/ghba_bench_ckpt_" + std::to_string(state.range(0));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  StorageOptions options;
  options.data_dir = dir;
  auto engine = StorageEngine::Open(
      options, CountingBloomFilter::ForCapacity(files, 8.0, 7), nullptr);
  if (!engine.ok()) {
    state.SkipWithError("engine open failed");
    return;
  }
  MetadataStore store;
  auto filter = CountingBloomFilter::ForCapacity(files, 8.0, 7);
  FileMetadata md;
  for (std::size_t i = 0; i < files; ++i) {
    const auto path = "/ck/d" + std::to_string(i % 64) + "/f" +
                      std::to_string(i);
    md.inode = i;
    (void)store.Insert(path, md);
    filter.Add(path);
  }
  for (auto _ : state) {
    const auto s = (*engine)->WriteCheckpoint(store, filter);
    if (!s.ok()) {
      state.SkipWithError("checkpoint failed");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(files));
  engine->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointWrite)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace ghba

BENCHMARK_MAIN();

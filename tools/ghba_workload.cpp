// ghba_workload — run a deterministic lookup workload against a live
// in-process cluster through the ghba::Client facade and (optionally) hold
// the servers up so external tools can poll them.
//
//   $ ghba_workload [--servers N] [--group M] [--files F] [--shards S]
//                   [--batch] [--cache] [--ports-file PATH] [--hold]
//                   [--data-dir DIR] [--churn SECS] [--threads N]
//                   [--coherence SECS]
//
// Starts an N-MDS G-HBA cluster over loopback TCP, inserts F files,
// publishes replicas, looks every file up twice (the repeat exercises the
// entry server's L1) plus a handful of guaranteed misses, quiesces the
// one-way report frames, and prints the workload summary:
//
//   lookups=<count issued>
//   ports=<p0> <p1> ...
//
// The client cache defaults OFF here so the e2e accounting invariant
// (l1+l2+l3+l4+miss == lookups, measured server-side) keeps holding;
// --cache turns the leased lookup cache on.
//
// With --churn SECS the workload runs SECS seconds of membership churn
// under live load: --threads N background threads (default 1), each with
// its own Client facade, keep looking files up while the main thread
// gracefully removes and re-adds servers. Every lookup answer
// is audited — a not-found or a non-transient error is a wrong lookup —
// and the run fails unless wrong == 0, every join and leave succeeded, and
// at least one reconfiguration actually happened. Results go to stdout as
// churn_* key=value lines.
//
// With --coherence SECS the workload runs the front-tier coherence audit
// (cache forced ON): each round a second reader Client and the writer
// both cache a file, the writer unlinks it, and both re-read it — any
// `found` after a successful unlink, through either client, is a stale
// read — while a replica migration bounces in the background bumping the
// routing epoch. The run fails unless stale == 0, the cache actually
// served hits, and at least one migration happened. Results go to stdout
// as coherence_* lines.
//
// With --hold the process then blocks until stdin reaches EOF (or a line
// arrives), keeping the servers alive; the e2e CI smoke uses this to run
// `ghba_stats --json` against a real cluster and assert the accounting
// invariant above.
//
// Exit status: 0 on success, 1 on any cluster/workload failure.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"

using namespace ghba;

namespace {

/// One round of the coherence audit against `path`: the reader and the
/// writer look it up (seeding their caches), the writer unlinks it (the
/// cluster revokes it from both caches), then both re-read it several
/// times — every `found` is a stale read. The file is re-inserted before
/// returning so the next round starts clean.
/// Returns the number of stale reads (-1 = infrastructure failure).
int CoherenceRound(Client& writer, Client& reader, const std::string& path,
                   std::uint64_t* lookups) {
  for (Client* client : {&reader, &writer}) {
    const auto before = client->Lookup(path);
    ++*lookups;
    if (!before.ok() || !before->found) return -1;
  }
  if (const auto s = writer.Unlink(path); !s.ok()) return -1;
  int stale = 0;
  for (int probe = 0; probe < 3; ++probe) {
    for (Client* client : {&writer, &reader}) {
      const auto r = client->Lookup(path);
      ++*lookups;
      // Unavailable is transient churn noise; found is the coherence bug.
      if (r.ok() && r->found) ++stale;
    }
  }
  FileMetadata md;
  md.inode = 77;
  if (const auto s = writer.Insert(path, md); !s.ok()) return -1;
  return stale;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t num_servers = 4;
  std::uint32_t group_size = 2;
  int num_files = 48;
  std::uint32_t shards = 0;  // 0 = config default
  bool batch = false;
  bool cache = false;
  std::string ports_file;
  std::string data_dir;
  bool hold = false;
  double churn_secs = 0;
  int churn_threads = 1;
  double coherence_secs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--servers") == 0 && i + 1 < argc) {
      num_servers = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--group") == 0 && i + 1 < argc) {
      group_size = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--files") == 0 && i + 1 < argc) {
      num_files = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--ports-file") == 0 && i + 1 < argc) {
      ports_file = argv[++i];
    } else if (std::strcmp(argv[i], "--data-dir") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0) {
      batch = true;
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      cache = true;
    } else if (std::strcmp(argv[i], "--hold") == 0) {
      hold = true;
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      churn_secs = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      churn_threads = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--coherence") == 0 && i + 1 < argc) {
      coherence_secs = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--servers N] [--group M] [--files F] "
                   "[--shards S] [--batch] [--cache] "
                   "[--ports-file PATH] [--hold] [--data-dir DIR] "
                   "[--churn SECS] [--threads N] [--coherence SECS]\n",
                   argv[0]);
      return 2;
    }
  }

  ClusterConfig config;
  config.num_mds = num_servers;
  config.max_group_size = group_size;
  config.expected_files_per_mds = 500;
  config.lru_capacity = 64;
  config.memory_budget_bytes = 64ULL << 20;
  config.seed = 2026;
  // Durable mode: every server logs to DIR/mds-<id>/ before acking.
  config.storage.data_dir = data_dir;
  if (shards != 0) config.rpc.server_shards = shards;

  ClientOptions options;
  options.cache_enabled = cache || coherence_secs > 0;
  auto opened = Client::Open(config, ProtoScheme::kGhba, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "start failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  Client& client = **opened;
  PrototypeCluster& cluster = client.cluster();

  if (batch) {
    // Batched writes: one kBatch frame per server, one CRC per frame.
    std::vector<std::pair<std::string, FileMetadata>> files;
    files.reserve(static_cast<std::size_t>(num_files));
    for (int i = 0; i < num_files; ++i) {
      FileMetadata md;
      md.inode = static_cast<std::uint64_t>(i);
      files.emplace_back("/wk/f" + std::to_string(i), md);
    }
    if (const auto s = client.InsertBatch(files); !s.ok()) {
      std::fprintf(stderr, "batch insert failed: %s\n", s.ToString().c_str());
      return 1;
    }
  } else {
    for (int i = 0; i < num_files; ++i) {
      FileMetadata md;
      md.inode = static_cast<std::uint64_t>(i);
      if (const auto s = client.Insert("/wk/f" + std::to_string(i), md);
          !s.ok()) {
        std::fprintf(stderr, "insert failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
  }
  if (const auto s = cluster.PublishAll(); !s.ok()) {
    std::fprintf(stderr, "publish failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::uint64_t lookups = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < num_files; ++i) {
      const auto r = client.Lookup("/wk/f" + std::to_string(i));
      if (!r.ok() || !r->found) {
        std::fprintf(stderr, "lookup /wk/f%d failed\n", i);
        return 1;
      }
      ++lookups;
    }
  }
  for (int i = 0; i < 7; ++i) {
    const auto r = client.Lookup("/wk/absent" + std::to_string(i));
    if (!r.ok() || r->found) {
      std::fprintf(stderr, "miss lookup %d misbehaved\n", i);
      return 1;
    }
    ++lookups;
  }

  if (churn_secs > 0) {
    // Membership churn under live load: lookups keep flowing from the
    // background threads while servers gracefully leave and fresh ones
    // join. RemoveServer drains the leaver's files to the survivors, so
    // every file must stay resolvable throughout; an unreachable-peer
    // error is transient (the orchestrator's next call retries), a
    // not-found is a wrong lookup and fails the run.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> churn_lookups{0};
    std::atomic<std::uint64_t> churn_wrong{0};
    std::vector<std::thread> load;
    load.reserve(static_cast<std::size_t>(churn_threads));
    for (int t = 0; t < churn_threads; ++t) {
      load.emplace_back([&, t] {
        auto reader = Client::Attach(&cluster, options);
        int i = t;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto r =
              reader->Lookup("/wk/f" + std::to_string(i % num_files));
          ++i;
          churn_lookups.fetch_add(1, std::memory_order_relaxed);
          const bool wrong =
              r.ok() ? !r->found
                     : r.status().code() != StatusCode::kUnavailable;
          if (wrong) churn_wrong.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::uint64_t rounds = 0;
    std::uint64_t reconfig_failures = 0;
    const auto note = [&reconfig_failures](const char* what, const Status& s) {
      if (s.ok()) return;
      std::fprintf(stderr, "churn: %s failed: %s\n", what,
                   s.ToString().c_str());
      ++reconfig_failures;
    };
    const auto stop_at = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(churn_secs);
    while (std::chrono::steady_clock::now() < stop_at) {
      const auto alive = cluster.AliveServers();
      if (alive.size() > 1) {
        note("remove", cluster.RemoveServer(alive.back()).status());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      note("add", cluster.AddServer().status());
      ++rounds;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& thread : load) thread.join();
    const std::uint64_t reconfig_msgs =
        cluster.metrics().reconfig_messages.value();
    std::printf("churn_rounds=%llu\n", static_cast<unsigned long long>(rounds));
    std::printf("churn_lookups=%llu\n",
                static_cast<unsigned long long>(churn_lookups.load()));
    std::printf("churn_wrong=%llu\n",
                static_cast<unsigned long long>(churn_wrong.load()));
    std::printf("churn_reconfig_messages=%llu\n",
                static_cast<unsigned long long>(reconfig_msgs));
    std::printf("churn_epoch=%llu\n",
                static_cast<unsigned long long>(cluster.RoutingEpoch()));
    if (churn_wrong.load() != 0 || reconfig_msgs == 0 ||
        churn_lookups.load() == 0 || reconfig_failures != 0) {
      std::fprintf(stderr, "churn failed the zero-wrong-lookups bar\n");
      return 1;
    }
  }

  if (coherence_secs > 0) {
    // Front-tier coherence audit: unlinks and replica migrations churn
    // while leased cache entries serve lookups. The bar: zero stale reads
    // — no `found` for an unlinked path, through cache or cascade —
    // while the cache demonstrably served hits and epochs really bumped.
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> migrations{0};
    // Replica-migration bouncer: move some outsider's replica between the
    // members of server 0's group, bumping the routing epoch every move.
    std::thread churner([&] {
      std::vector<MdsId> members;
      if (const auto view = cluster.MembershipOf(0); view.ok()) {
        members = *view;
      }
      MdsId owner = kInvalidMds;
      for (const MdsId id : cluster.AliveServers()) {
        if (std::find(members.begin(), members.end(), id) == members.end()) {
          owner = id;
          break;
        }
      }
      if (owner == kInvalidMds || members.empty()) return;  // single group
      std::size_t turn = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const MdsId to = members[turn++ % members.size()];
        if (cluster.MigrateReplica(owner, to).ok()) {
          migrations.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    const auto reader = Client::Attach(&cluster, options);
    std::uint64_t rounds = 0, stale = 0, audit_lookups = 0, failures = 0;
    const auto stop_at = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(coherence_secs);
    while (std::chrono::steady_clock::now() < stop_at) {
      const std::string path =
          "/wk/f" + std::to_string(rounds % static_cast<std::uint64_t>(
                                                num_files));
      const int round_stale =
          CoherenceRound(client, *reader, path, &audit_lookups);
      if (round_stale < 0) {
        ++failures;  // transient churn noise; the bar is on stale reads
      } else {
        stale += static_cast<std::uint64_t>(round_stale);
      }
      ++rounds;
    }
    stop.store(true, std::memory_order_relaxed);
    churner.join();

    const std::uint64_t cache_hits =
        cluster.ClientSnapshot().CounterOr("cache.hits");
    std::printf("coherence_rounds=%llu\n",
                static_cast<unsigned long long>(rounds));
    std::printf("coherence_lookups=%llu\n",
                static_cast<unsigned long long>(audit_lookups));
    std::printf("coherence_stale=%llu\n",
                static_cast<unsigned long long>(stale));
    std::printf("coherence_failures=%llu\n",
                static_cast<unsigned long long>(failures));
    std::printf("coherence_migrations=%llu\n",
                static_cast<unsigned long long>(migrations.load()));
    std::printf("coherence_cache_hits=%llu\n",
                static_cast<unsigned long long>(cache_hits));
    if (stale != 0 || rounds == 0 || migrations.load() == 0 ||
        failures > rounds / 2) {
      std::fprintf(stderr, "coherence audit failed the zero-stale-reads bar\n");
      return 1;
    }
  }

  // Make sure every one-way kReportOutcome frame has been folded into the
  // server registries before anyone polls kStatsSnapshot.
  if (const auto s = cluster.Quiesce(); !s.ok()) {
    std::fprintf(stderr, "quiesce failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const auto ports = cluster.ServerPorts();
  std::printf("lookups=%llu\n", static_cast<unsigned long long>(lookups));
  std::printf("ports=");
  for (std::size_t i = 0; i < ports.size(); ++i) {
    std::printf("%s%u", i ? " " : "", ports[i]);
  }
  std::printf("\n");
  std::fflush(stdout);

  if (!ports_file.empty()) {
    // Written last, in one go: a non-empty file means the summary above is
    // complete and the servers are pollable.
    if (std::FILE* f = std::fopen(ports_file.c_str(), "w")) {
      std::fprintf(f, "%llu\n", static_cast<unsigned long long>(lookups));
      for (std::size_t i = 0; i < ports.size(); ++i) {
        std::fprintf(f, "%s%u", i ? " " : "", ports[i]);
      }
      std::fprintf(f, "\n");
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", ports_file.c_str());
      return 1;
    }
  }

  if (hold) {
    // Keep the servers alive until the driver script is done polling.
    int c;
    while ((c = std::getchar()) != EOF && c != '\n') {
    }
  }
  return 0;
}

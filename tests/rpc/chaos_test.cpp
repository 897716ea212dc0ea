// Chaos-style integration test for the RPC prototype (the issue's
// acceptance scenario): a fixed-seed FaultInjector drops/delays/mangles
// >=10% of frames while one server's event loop is stalled outright. Under
// that regime every lookup must either return the correct home or a
// bounded-time transient error, the stalled server must be detected and
// failed over automatically (heart-beat path, no manual KillServer), and
// once the faults clear the surviving namespace must be fully intact.
//
// Fault decisions come from one seeded Rng, so the schedule is fixed for a
// fixed decision order; the assertions are additionally written to hold
// under any server-thread interleaving (bounds and set-membership, not
// exact sequences).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "rpc/prototype_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig ChaosConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 2024;
  // Tight budgets: a call into the stalled server must cost well under a
  // second, and the whole faulted phase a few seconds.
  c.rpc.connect_timeout_ms = 150;
  c.rpc.attempt_timeout_ms = 150;
  c.rpc.call_budget_ms = 450;
  c.rpc.max_attempts = 3;
  c.rpc.retry_backoff_ms = 2;
  // suspect_after 3 + 3 ping probes: a healthy peer that merely loses a
  // few frames to the injector essentially never gets failed over, while
  // the stalled server (which answers nothing, ever) always does.
  c.rpc.suspect_after = 3;
  c.rpc.ping_attempts = 3;
  c.rpc.ping_timeout_ms = 100;
  return c;
}

TEST(ChaosTest, LookupsStayCorrectAndBoundedUnderInjectedFaults) {
  FaultInjector injector;  // all probabilities zero: transparent for setup
  PrototypeCluster cluster(ChaosConfig(), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());

  // Fault-free phase: build the namespace and record the ground truth.
  constexpr int kFiles = 40;
  const auto path_of = [](int i) { return "/chaos/f" + std::to_string(i); };
  std::map<std::string, MdsId> home_of;
  for (int i = 0; i < kFiles; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path_of(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < kFiles; ++i) {
    const auto r = cluster.Lookup(path_of(i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found) << path_of(i);
    home_of[path_of(i)] = r->home;
  }

  // Chaos on: >=10% drops, >=10% delays, some truncation/corruption and
  // refused connects, plus one server stalled outright.
  const MdsId victim = 4;
  FaultInjector::Options faults;
  faults.drop_prob = 0.10;
  faults.delay_prob = 0.10;
  faults.truncate_prob = 0.03;
  faults.corrupt_prob = 0.05;
  faults.refuse_connect_prob = 0.05;
  faults.delay_ms_max = 5;
  faults.seed = 20240807;
  injector.set_options(faults);
  injector.StallServer(victim);

  // Worst case per lookup: ~17 calls x 450ms budget, plus one detection
  // round (3 pings x 100ms) and the fail-over repair traffic. 20s is a
  // generous ceiling that still catches any unbounded blocking.
  const auto kPerLookupBound = std::chrono::milliseconds(20000);
  int served = 0;
  int bounded_errors = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (int i = 0; i < kFiles; ++i) {
      const std::string path = path_of(i);
      const auto start = std::chrono::steady_clock::now();
      const auto r = cluster.Lookup(path);
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start);
      ASSERT_LT(elapsed, kPerLookupBound) << path;
      if (!r.ok()) {
        // Degraded, not wrong: the only error Lookup surfaces is the
        // bounded "could not reach every peer" verdict.
        EXPECT_EQ(r.status().code(), StatusCode::kUnavailable) << path;
        ++bounded_errors;
        continue;
      }
      if (r->found) {
        // Never a wrong answer, no matter what the injector mangled.
        EXPECT_EQ(r->home, home_of[path]) << path;
        ++served;
      } else {
        // A clean miss is only possible once the stalled server has been
        // failed over and its files are legitimately gone.
        EXPECT_EQ(home_of[path], victim) << path;
      }
    }
  }
  // The faulted cluster still did real work.
  EXPECT_GT(served, kFiles / 2);

  // The stalled server was confirmed dead via kPing heart-beats and failed
  // over automatically — KillServer was never called in this test.
  const auto alive = cluster.AliveServers();
  EXPECT_EQ(std::count(alive.begin(), alive.end(), victim), 0)
      << "stalled server not auto-failed-over (bounded errors seen: "
      << bounded_errors << ")";
  EXPECT_EQ(cluster.health().state(victim), PeerState::kDead);

  // The injector really exercised the frame paths at the advertised rates.
  const auto counters = injector.counters();
  EXPECT_GT(counters.frames, 200u);
  EXPECT_GT(counters.drops, counters.frames / 20);
  EXPECT_GT(counters.delays, counters.frames / 20);
  EXPECT_GT(counters.truncations + counters.corruptions, 0u);

  // Chaos off: every surviving file is served, correctly, first try.
  injector.set_options(FaultInjector::Options{});
  injector.UnstallServer(victim);
  for (const auto& [path, home] : home_of) {
    if (home == victim) continue;  // lost with the crash, by design
    const auto r = cluster.Lookup(path);
    ASSERT_TRUE(r.ok()) << path << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path;
    EXPECT_EQ(r->home, home) << path;
  }
  // And the cluster accepts new work after the storm.
  FileMetadata md;
  md.inode = 999;
  ASSERT_TRUE(cluster.Insert("/chaos/after", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/chaos/after");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
}

// Kill/restart churn while a pipelined client hammers a survivor: the
// surviving server's connection must never break, misorder, or wedge
// while the orchestrator repeatedly kills and recovers a durable peer,
// and every acked insert must still be resolvable afterwards.
TEST(ChaosTest, KillRestartUnderPipelinedLoadLosesNothing) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("ghba-chaos-pipeline-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  fs::remove_all(dir);

  ClusterConfig config = ChaosConfig();
  config.num_mds = 4;
  config.max_group_size = 2;
  config.storage.data_dir = dir.string();
  config.storage.fsync = FsyncPolicy::kAlways;
  // Default deadlines: an fsync'd call must not time out on a loaded
  // machine; only the kills may fail a call here.
  config.rpc = RpcOptions{};
  PrototypeCluster cluster(config, ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  const int kFiles = 30;
  for (int i = 0; i < kFiles; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert("/chaos/pipe/f" + std::to_string(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  // Pipelined load against server 0 (which stays up): windows of
  // alternating kPing / kStatsSnapshot frames, all in flight at once. The
  // response types must come back in request order — a misroute or a
  // dropped slot shows up as a type mismatch or a stuck RecvFrame.
  const auto ports = cluster.ServerPorts();
  std::atomic<bool> stop{false};
  std::atomic<int> load_failures{0};
  std::atomic<int> windows_done{0};
  std::thread load([&] {
    auto conn = TcpConnection::Connect(ports[0]);
    if (!conn.ok()) {
      ++load_failures;
      return;
    }
    const auto deadline_ms = std::chrono::milliseconds(5000);
    while (!stop.load(std::memory_order_relaxed)) {
      const int kWindow = 16;
      for (int i = 0; i < kWindow; ++i) {
        const auto req = (i % 2 == 0) ? EncodeHeader(MsgType::kPing)
                                      : EncodeHeader(MsgType::kStatsSnapshot);
        if (!conn->SendFrame(req, Deadline::After(deadline_ms)).ok()) {
          ++load_failures;
          return;
        }
      }
      for (int i = 0; i < kWindow; ++i) {
        auto resp = conn->RecvFrame(Deadline::After(deadline_ms));
        if (!resp.ok()) {
          ++load_failures;
          return;
        }
        ByteReader in(*resp);
        auto env = OpenEnvelope(in);
        if (!env.ok()) {
          ++load_failures;
          return;
        }
        // Even slots are pings (bare ack), odd slots stats (payload):
        // response order must mirror request order exactly.
        const bool want_payload = (i % 2 == 1);
        if (env->has_payload != want_payload ||
            (want_payload && !DecodeStatsSnapshotResp(in).ok())) {
          ++load_failures;
          return;
        }
      }
      ++windows_done;
    }
  });

  // Churn a durable peer underneath the load.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(cluster.KillServer(1).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto info = cluster.RestartServer(1);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->durable);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  load.join();
  EXPECT_EQ(load_failures.load(), 0);
  EXPECT_GT(windows_done.load(), 0);

  // Nothing acked was lost across the kill/restart churn.
  for (int i = 0; i < kFiles; ++i) {
    const auto r = cluster.Lookup("/chaos/pipe/f" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << i;
  }
  cluster.Stop();
  fs::remove_all(dir);
}

TEST(ChaosTest, FixedSeedGivesReproducibleFaultSchedule) {
  // The cluster-level chaos run above tolerates interleaving; this pins
  // down the determinism claim itself: one decision stream, one seed, one
  // schedule.
  FaultInjector::Options faults;
  faults.drop_prob = 0.10;
  faults.delay_prob = 0.10;
  faults.truncate_prob = 0.03;
  faults.corrupt_prob = 0.05;
  faults.seed = 20240807;
  FaultInjector a(faults);
  FaultInjector b(faults);
  for (int i = 0; i < 1000; ++i) {
    const auto pa = a.PlanFrame();
    const auto pb = b.PlanFrame();
    ASSERT_EQ(pa.action, pb.action) << i;
    ASSERT_EQ(pa.delay.count(), pb.delay.count()) << i;
  }
  const auto ca = a.counters();
  const auto cb = b.counters();
  EXPECT_EQ(ca.drops, cb.drops);
  EXPECT_EQ(ca.delays, cb.delays);
  EXPECT_EQ(ca.truncations, cb.truncations);
  EXPECT_EQ(ca.corruptions, cb.corruptions);
}

}  // namespace
}  // namespace ghba

// ghba_perfbench: closed-loop end-to-end benchmark of the G-HBA prototype
// through ghba::Client.
//
//   ghba_perfbench --workload stat_hot|stat_cold|namespace_churn
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//                  [--quick] [--git-sha SHA] [--cap-seconds C]
//
// One invocation sets the cluster up several times (setup_s is the median),
// keeps the last one, and drives it from kClientThreads threads, each with
// its own Client::Attach facade, for S seconds. With --trace 0 it prints
// the end-to-end metrics; with --trace 1 it alternates untraced and traced
// quarters of the window (the difference is the tracing overhead), records
// spans around its own calls, runs a probe thread, replays a sample of the
// window's operations layer by layer, and prints the per-layer metrics.
// Every answer is checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit 0 only when every
// check passed; 1 on a wrong answer or failed operation; 2 on bad
// arguments or a cluster that would not start; 3 when the wall-time cap
// fired (the report names the stalled operation).
#include <atomic>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/metrics.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace names = ghba::metrics_names;

struct Args {
  Workload workload = Workload::kStatHot;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string work_dir = ".bench_build/perfbench-data";
  std::string git_sha = "unknown";
  double cap_seconds = 165;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) {
        *error = "unknown workload '" + value +
                 "' (stat_hot, stat_cold, namespace_churn)";
        return false;
      }
      args->workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--cap-seconds") {
      args->cap_seconds = std::atof(value.c_str());
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload) *error = "--workload is required";
  if (args->seconds <= 0) *error = "--seconds must be positive";
  return error->empty();
}

/// Wall-time cap. Benchmark threads publish the operation they are in;
/// when the cap passes, or one operation outlives `stall_s`, the watchdog
/// names the phase and the stalled operations on stderr, removes the data
/// directory and ends the process with exit code 3.
class Watchdog {
 public:
  struct Slot {
    std::mutex mu;
    std::string what;
    std::atomic<std::uint64_t> since_ns{0};  ///< 0 = idle

    void Begin(const char* kind, const std::string& path) {
      {
        std::lock_guard<std::mutex> lock(mu);
        what.assign(kind);
        what += ' ';
        what += path;
      }
      since_ns.store(NowNs(), std::memory_order_release);
    }
    void End() { since_ns.store(0, std::memory_order_release); }
  };

  Watchdog(double cap_s, double stall_s, std::string cleanup_dir)
      : deadline_ns_(NowNs() + static_cast<std::uint64_t>(cap_s * 1e9)),
        cap_s_(cap_s),
        stall_ns_(static_cast<std::uint64_t>(stall_s * 1e9)),
        cleanup_dir_(std::move(cleanup_dir)),
        thread_([this] { Loop(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Phase(std::string phase) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = std::move(phase);
  }
  Slot& slot(unsigned i) { return slots_[i]; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return done_; })) {
      const std::uint64_t now = NowNs();
      bool stalled = false;
      for (Slot& s : slots_) {
        const std::uint64_t since = s.since_ns.load(std::memory_order_acquire);
        stalled = stalled || (since != 0 && since < now &&
                              now - since > stall_ns_);
      }
      if (now < deadline_ns_ && !stalled) continue;
      std::fprintf(stderr,
                   "perfbench: %s during phase '%s'\n",
                   stalled ? "an operation stalled" : "wall-time cap hit",
                   phase_.c_str());
      if (!stalled) std::fprintf(stderr, "perfbench: cap was %.0fs\n", cap_s_);
      for (unsigned i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        const std::uint64_t since = s.since_ns.load(std::memory_order_acquire);
        if (since == 0 || since >= now) continue;
        std::lock_guard<std::mutex> slot_lock(s.mu);
        std::fprintf(stderr, "perfbench: thread %u stuck %.2fs in %s\n", i,
                     static_cast<double>(now - since) / 1e9, s.what.c_str());
      }
      std::fflush(stderr);
      std::error_code ec;
      std::filesystem::remove_all(cleanup_dir_, ec);
      std::_Exit(3);
    }
  }

  const std::uint64_t deadline_ns_;
  const double cap_s_;
  const std::uint64_t stall_ns_;
  const std::string cleanup_dir_;
  std::array<Slot, kClientThreads + 1> slots_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::string phase_ = "start";
  std::thread thread_;  // last: started after everything it reads
};

/// The window is cut into one-second slices. Reported rates and latencies
/// are medians over the slices, so a burst of host noise that hits a few
/// of them does not move the result.
inline constexpr std::uint64_t kSliceNs = 1'000'000'000;
/// The read-only workloads issue no writes of their own. The last 150 ms of
/// each of their slices is a write phase in which client 0 runs the write
/// probe alone, so their write latencies are sampled across the whole
/// window, like the reads.
inline constexpr std::uint64_t kReadPhaseNs = 850'000'000;
inline constexpr std::size_t kMaxSlices = 64;
inline constexpr std::uint8_t kNoSlice = 0xFF;

std::uint8_t SliceOf(std::uint64_t window_start_ns, std::uint64_t t) {
  if (window_start_ns == 0 || t < window_start_ns) return kNoSlice;
  return static_cast<std::uint8_t>(
      std::min<std::uint64_t>((t - window_start_ns) / kSliceNs, kMaxSlices - 1));
}

struct LookupTraceRecord {
  std::array<std::uint64_t, 4> level_ns{};
  std::uint8_t level = 0;
  std::uint32_t peers = 0;
  bool false_route = false;
};

/// One client thread: its facade, stream, ledger and measurements.
struct Worker {
  Worker(Workload workload, const Shape& shape,
         const std::vector<std::uint64_t>& active, std::uint64_t seed,
         unsigned id)
      : id(id), gen(workload, shape, active, seed, id) {}

  const unsigned id;
  ghba::Client* client = nullptr;
  Watchdog::Slot* slot = nullptr;
  OpGenerator gen;
  Ledger ledger;

  /// Latency samples (us) by kind and by the slice they finished in; the
  /// last buffer holds samples outside any slice.
  std::array<std::array<SampleBuffer, kMaxSlices + 1>, kOpKinds> lat_us;
  std::array<std::uint32_t, kMaxSlices> slice_ops{};
  std::uint64_t window_start_ns = 0;  ///< 0 until the window opens
  std::array<std::uint64_t, kOpKinds> acked{};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t cascades = 0;  ///< lookups that ran the cluster cascade
  std::array<std::uint64_t, 2> window_ops{};  ///< [untraced, traced]
  std::vector<std::string> errors;

  // Traced slices only.
  SpanBuffer spans;
  std::vector<LookupTraceRecord> traces;
  std::vector<Op> sample;  ///< every 16th window stat, for the replays
  std::uint64_t stats_seen = 0;

  void Error(std::string message) {
    if (errors.size() < 8) errors.push_back(std::move(message));
  }

  /// Run one operation through the facade and account it.
  void Run(const Op& op, bool traced, std::uint64_t op_id) {
    ghba::FileMetadata md;
    md.inode = op_id + 1;
    ghba::Status status;
    ghba::LookupOutcome outcome;
    bool answer_wrong = false;
    slot->Begin(OpKindName(op.kind), op.path);
    const std::uint64_t t0 = NowNs();
    switch (op.kind) {
      case OpKind::kStat: {
        auto r = client->Lookup(op.path);
        if (!r.ok()) {
          status = r.status();
        } else {
          outcome = std::move(*r);
          answer_wrong = outcome.found != op.expect_found;
        }
        break;
      }
      case OpKind::kCreate:
        status = client->Insert(op.path, md);
        break;
      case OpKind::kUnlink:
        status = client->Unlink(op.path);
        break;
      case OpKind::kRename:
        status = client->Rename(op.path, op.dst);
        break;
    }
    const std::uint64_t t1 = NowNs();
    slot->End();
    const auto kind = static_cast<std::size_t>(op.kind);
    const std::uint8_t slice = SliceOf(window_start_ns, t1);
    lat_us[kind][slice == kNoSlice ? kMaxSlices : slice].Add(
        static_cast<float>(t1 - t0) / 1e3f);
    if (slice != kNoSlice) ++slice_ops[slice];
    ++attempted;
    if (!status.ok()) {
      ++failed;
      ledger.Drop(op);
      Error(std::string(OpKindName(op.kind)) + " " + op.path + ": " +
            status.ToString());
      return;
    }
    if (answer_wrong) {
      ++wrong;
      Error("lookup " + op.path + (op.expect_found ? ": not found" : ": found"));
      return;
    }
    ledger.Apply(op);
    ++acked[kind];
    if (op.kind == OpKind::kStat && !outcome.from_cache) ++cascades;
    if (traced) Trace(op, outcome, t0, t1, op_id);
  }

  void Trace(const Op& op, const ghba::LookupOutcome& outcome,
             std::uint64_t t0, std::uint64_t t1, std::uint64_t op_id) {
    const bool cascade = op.kind == OpKind::kStat && !outcome.from_cache;
    if (cascade) {
      LookupTraceRecord rec;
      rec.level_ns = outcome.trace.level_elapsed_ns;
      rec.level = outcome.trace.level;
      rec.peers = outcome.trace.peers_contacted;
      rec.false_route = outcome.trace.false_route;
      traces.push_back(rec);
    }
    if (!spans.Sampled(op_id)) return;
    static_assert(static_cast<int>(SpanName::kLookup) ==
                      static_cast<int>(OpKind::kStat) &&
                  static_cast<int>(SpanName::kRename) ==
                      static_cast<int>(OpKind::kRename));
    Span root;
    root.op_id = op_id;
    root.start_ns = t0;
    root.end_ns = t1;
    root.name = static_cast<SpanName>(op.kind);
    root.flags = outcome.from_cache ? kSpanFromCache : 0;
    const std::uint32_t parent = spans.AddRoot(root);
    if (!cascade) return;
    // Levels ran back to back inside the cluster call; lay them out from
    // the root's start.
    std::uint64_t at = t0;
    for (std::uint8_t level = 0; level < outcome.trace.level && level < 4;
         ++level) {
      Span child;
      child.op_id = op_id;
      child.start_ns = at;
      at += outcome.trace.level_elapsed_ns[level];
      child.end_ns = at;
      child.name = static_cast<SpanName>(
          static_cast<int>(SpanName::kLevel1) + level);
      spans.AddChild(parent, child);
    }
  }

  /// Closed loop until `stop`. With `write_phases`, the tail of every slice
  /// is a write phase: client 0 runs the write probe, the others idle.
  void Loop(const std::atomic<bool>& stop, const std::atomic<bool>& traced,
            unsigned sample_cap, bool write_phases) {
    std::uint64_t op_id = 0;
    std::uint64_t probe_i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const bool in_trace = traced.load(std::memory_order_acquire);
      const std::uint64_t into_slice = (NowNs() - window_start_ns) % kSliceNs;
      if (write_phases && into_slice >= kReadPhaseNs) {
        if (id == 0) {
          Run(gen.NextProbe(probe_i++, ledger), in_trace, op_id++);
          ++window_ops[in_trace ? 1 : 0];
        } else {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(kSliceNs - into_slice));
        }
        continue;
      }
      const Op op = gen.Next(ledger);
      if (in_trace && op.kind == OpKind::kStat && sample.size() < sample_cap &&
          stats_seen++ % 16 == 0) {
        sample.push_back(op);
      }
      Run(op, in_trace, op_id++);
      ++window_ops[in_trace ? 1 : 0];
    }
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Operations per second in each of the window's complete slices.
std::vector<double> SliceRates(const std::vector<Worker>& workers,
                               std::size_t slices) {
  std::vector<double> rates;
  for (std::size_t s = 0; s < slices; ++s) {
    double ops = 0;
    for (const Worker& w : workers) ops += w.slice_ops[s];
    rates.push_back(ops * 1e9 / static_cast<double>(kSliceNs));
  }
  return rates;
}

struct LatencySummary {
  double p50 = 0, p90 = 0, p99 = 0;
  std::size_t count = 0;
};

/// Latency percentiles of one operation kind. When each of the window's
/// complete slices holds enough samples, p50 and p90 are medians over the
/// slices of each slice's percentile; otherwise they are taken over all
/// samples. p99 is always over all samples.
LatencySummary Summarize(const std::vector<Worker>& workers, OpKind kind,
                         std::size_t slices) {
  constexpr std::size_t kMinSliceSamples = 30;
  const auto k = static_cast<std::size_t>(kind);
  LatencySummary s;
  std::vector<float> all;
  std::vector<std::vector<float>> per_slice(slices);
  for (const Worker& w : workers) {
    for (std::size_t b = 0; b <= kMaxSlices; ++b) {
      const SampleBuffer& buf = w.lat_us[k][b];
      s.count += buf.seen();
      all.insert(all.end(), buf.kept().begin(), buf.kept().end());
      if (b < slices) {
        per_slice[b].insert(per_slice[b].end(), buf.kept().begin(),
                            buf.kept().end());
      }
    }
  }
  bool sliced = slices > 0;
  for (const auto& v : per_slice) sliced = sliced && v.size() >= kMinSliceSamples;
  const auto percentile = [&](double p) {
    if (!sliced) return Percentile(all, p);
    std::vector<double> of_slices;
    for (auto& v : per_slice) of_slices.push_back(Percentile(v, p));
    return Median(of_slices);
  };
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = Percentile(all, 0.99);
  return s;
}

/// Lookup decomposition over the traced window's spans: among the lookups
/// whose duration lies in the 45th-55th percentile band, the mean time of
/// each cascade level. What the levels leave of the p50 is unattributed.
struct LookupBreakdown {
  double p50_us = 0;
  std::array<double, 4> level_us{};
};

LookupBreakdown BreakdownLookups(const std::vector<Worker>& workers) {
  std::vector<double> durations;
  for (const Worker& w : workers) {
    for (const Span& s : w.spans.spans()) {
      if (s.parent == kNoParent && s.name == SpanName::kLookup) {
        durations.push_back(s.DurationUs());
      }
    }
  }
  LookupBreakdown out;
  if (durations.empty()) return out;
  std::vector<double> sorted = durations;
  const double lo = Percentile(sorted, 0.45);
  const double hi = Percentile(sorted, 0.55);
  out.p50_us = Percentile(sorted, 0.50);
  std::size_t band = 0;
  for (const Worker& w : workers) {
    const auto& spans = w.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& root = spans[i];
      if (root.parent != kNoParent || root.name != SpanName::kLookup) continue;
      const double d = root.DurationUs();
      if (d < lo || d > hi) continue;
      ++band;
      for (std::size_t j = i + 1; j < spans.size() && spans[j].parent == i;
           ++j) {
        const int level = static_cast<int>(spans[j].name) -
                          static_cast<int>(SpanName::kLevel1);
        out.level_us[level] += spans[j].DurationUs();
      }
    }
  }
  for (double& us : out.level_us) us = Ratio(us, static_cast<double>(band));
  return out;
}

void PrintBreakdown(const char* op, double e2e_p50,
                    const std::vector<std::pair<std::string, double>>& parts) {
  double explained = 0;
  std::printf("breakdown %-6s e2e_p50=%.1fus =", op, e2e_p50);
  for (const auto& [name, us] : parts) {
    std::printf(" %s %.1fus +", name.c_str(), us);
    explained += us;
  }
  const double rest = e2e_p50 - explained;
  std::printf(" unattributed %.1fus (%.0f%%)\n", rest,
              100 * Ratio(rest, e2e_p50));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Fail(const std::string& reason, int code) {
  std::fprintf(stderr, "perfbench: %s\n", reason.c_str());
  return code;
}

int RunBenchmark(const Args& args) {
  Shape shape;
  int setups = 3;
  unsigned sample_cap = 256;
  unsigned replay_renames = 64;
  if (args.quick) {
    shape.files = 5000;
    shape.active = 500;
    setups = 1;
    sample_cap = 64;
    replay_renames = 16;
  }
  const bool read_only = args.workload != Workload::kChurn;

  const std::string run_dir = args.work_dir + "/run-" +
                              std::to_string(::getpid()) + "-" +
                              WorkloadName(args.workload);
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) return Fail("cannot create " + run_dir + ": " + ec.message(), 2);
  struct DirGuard {
    std::string dir;
    ~DirGuard() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } dir_guard{run_dir};
  Watchdog watchdog(args.cap_seconds, /*stall_s=*/30, run_dir);

  // Inputs: the namespace, the hot set, one stream per client thread.
  std::vector<std::pair<std::string, ghba::FileMetadata>> files;
  files.reserve(shape.files);
  for (std::uint64_t id = 0; id < shape.files; ++id) {
    ghba::FileMetadata md;
    md.inode = id + 1;
    files.emplace_back(NamespacePath(shape, id), md);
  }
  const std::vector<std::uint64_t> active = ActiveSet(shape, args.seed);
  std::vector<Worker> workers;
  workers.reserve(kClientThreads);
  for (unsigned i = 0; i < kClientThreads; ++i) {
    workers.emplace_back(args.workload, shape, active, args.seed, i);
    workers.back().slot = &watchdog.slot(i);
  }

  // Set-up, several times; the last cluster stays for the measurement.
  std::vector<double> setup_s;
  std::unique_ptr<ClusterRun> run;
  for (int s = 0; s < setups; ++s) {
    run.reset();
    watchdog.Phase("setup " + std::to_string(s + 1));
    const std::uint64_t t0 = NowNs();
    auto started = ClusterRun::Start(
        shape, run_dir + "/setup-" + std::to_string(s), files, kClientThreads);
    if (!started.ok()) {
      return Fail("cluster failed to start: " + started.status().ToString(),
                  2);
    }
    run = std::move(*started);
    // Warm-up: every client looks up the whole hot set (so stat_hot starts
    // with a warm lease cache), or 500 uniform namespace paths for
    // stat_cold.
    ghba::Rng warm_rng(args.seed ^ 0x3A3A3A3AULL);
    for (unsigned c = 0; c < kClientThreads; ++c) {
      const std::size_t n =
          args.workload == Workload::kStatCold ? 500 : active.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t id = args.workload == Workload::kStatCold
                                     ? warm_rng.NextBounded(shape.files)
                                     : active[i];
        const auto r = run->client(c).Lookup(NamespacePath(shape, id));
        if (!r.ok() || !r->found) {
          return Fail("warm-up lookup of " + NamespacePath(shape, id) +
                          " failed",
                      1);
        }
      }
    }
    setup_s.push_back(SecondsSince(t0));
  }
  for (unsigned i = 0; i < kClientThreads; ++i) {
    workers[i].client = &run->client(i);
  }
  ghba::PrototypeCluster& cluster = run->cluster();

  // Traced run: the probe's idle round trips come first, on a quiet
  // cluster.
  std::unique_ptr<LoadProbe> probe;
  std::vector<double> rtt_idle;
  if (args.trace) {
    watchdog.Phase("probe idle round trips");
    std::vector<std::string> probe_paths;
    for (std::size_t i = 0; i < active.size() && i < 64; ++i) {
      probe_paths.push_back(NamespacePath(shape, active[i]));
    }
    auto opened = LoadProbe::Open(cluster, std::move(probe_paths));
    if (!opened.ok()) return Fail("probe: " + opened.status().ToString(), 1);
    probe = std::move(*opened);
    auto idle = probe->IdleRtt(300);
    if (!idle.ok()) return Fail("probe: " + idle.status().ToString(), 1);
    rtt_idle = std::move(*idle);
  }

  watchdog.Phase("sample before window");
  auto before = TakeSample(cluster);
  if (!before.ok()) return Fail("stats: " + before.status().ToString(), 1);

  // The timed window. Traced runs alternate untraced and traced quarters,
  // so both halves see the same drift.
  watchdog.Phase("window");
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::vector<std::thread> threads;
  for (Worker& w : workers) {
    threads.emplace_back([&w, &go, &stop, &traced, sample_cap, read_only] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      w.Loop(stop, traced, sample_cap, read_only);
    });
  }
  std::thread probe_thread;
  if (probe) {
    probe_thread = std::thread([&probe, &traced, &stop] {
      probe->Run(traced, stop);
    });
  }
  const std::uint64_t window_start = NowNs();
  for (Worker& w : workers) w.window_start_ns = window_start;
  go.store(true, std::memory_order_release);
  std::array<double, 2> phase_s{};  ///< [untraced, traced] seconds
  const int phases = args.trace ? 4 : 1;
  for (int i = 0; i < phases; ++i) {
    const bool t = args.trace && i % 2 == 1;
    traced.store(t, std::memory_order_release);
    const std::uint64_t s0 = NowNs();
    std::this_thread::sleep_for(std::chrono::duration<double>(
        args.seconds / phases));
    phase_s[t ? 1 : 0] += SecondsSince(s0);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  if (probe_thread.joinable()) probe_thread.join();
  const double window_s = SecondsSince(window_start);
  const auto slices = static_cast<std::size_t>(
      std::min<double>(window_s * 1e9 / kSliceNs, kMaxSlices - 1));
  for (Worker& w : workers) w.window_start_ns = 0;
  const std::vector<double> slice_rates = SliceRates(workers, slices);
  const double ops_per_s = Median(slice_rates);

  watchdog.Phase("sample after window");
  auto after = TakeSample(cluster);
  if (!after.ok()) return Fail("stats: " + after.status().ToString(), 1);

  std::vector<std::string> violations;
  // Level accounting: every cascade this run caused reported exactly one
  // level to its entry server (Unlink locates its path first, Rename
  // probes source and destination).
  std::uint64_t expected_cascades = 0;
  for (const Worker& w : workers) {
    expected_cascades += w.cascades +
                         w.acked[static_cast<int>(OpKind::kUnlink)] +
                         2 * w.acked[static_cast<int>(OpKind::kRename)];
  }
  const std::uint64_t server_levels =
      after->LookupLevels() - before->LookupLevels();
  if (server_levels != expected_cascades) {
    violations.push_back("server lookups.l1..l4+miss sum to " +
                         std::to_string(server_levels) + ", expected " +
                         std::to_string(expected_cascades));
  }

  // Namespace audit through each thread's own facade.
  watchdog.Phase("audit");
  std::uint64_t audited = 0;
  for (Worker& w : workers) {
    for (const auto* set : {&w.ledger.live, &w.ledger.gone}) {
      const bool want = set == &w.ledger.live;
      for (const std::string& path : *set) {
        const auto r = w.client->Lookup(path);
        ++audited;
        if (!r.ok() || r->found != want) {
          violations.push_back("audit: " + path + " should be " +
                               (want ? "present" : "absent"));
        }
      }
    }
  }

  // Traced run: layer replays on the quiet cluster.
  Replays replays;
  if (args.trace) {
    watchdog.Phase("layer replays");
    replays = RunReplays(*run, workers[0].sample, replay_renames,
                         run_dir + "/side-engine");
    for (const auto& e : replays.errors) violations.push_back(e);
    if (!probe->error().empty()) violations.push_back(probe->error());
  }
  watchdog.Phase("final sample");
  auto final_sample = TakeSample(cluster);
  if (!final_sample.ok()) {
    return Fail("stats: " + final_sample.status().ToString(), 1);
  }

  // ---- end-to-end metrics ----
  std::uint64_t attempted = audited + replays.operations;
  std::uint64_t failed = violations.size();
  std::uint64_t window_ops = 0;
  std::uint64_t traced_ops = 0;
  std::uint64_t wrong = 0;
  std::array<std::uint64_t, kOpKinds> acked{};
  for (const Worker& w : workers) {
    attempted += w.attempted;
    failed += w.failed + w.wrong;
    wrong += w.wrong;
    window_ops += w.window_ops[0] + w.window_ops[1];
    traced_ops += w.window_ops[1];
    for (int k = 0; k < kOpKinds; ++k) acked[k] += w.acked[k];
  }
  const double error_rate = Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted));
  std::array<LatencySummary, kOpKinds> lat;
  for (int k = 0; k < kOpKinds; ++k) {
    lat[k] = Summarize(workers, static_cast<OpKind>(k), slices);
  }
  const auto& lookup = lat[static_cast<int>(OpKind::kStat)];
  const auto& create = lat[static_cast<int>(OpKind::kCreate)];
  const auto& unlink = lat[static_cast<int>(OpKind::kUnlink)];
  const auto& rename = lat[static_cast<int>(OpKind::kRename)];

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", ops_per_s, "1/s"},
        {"lookup_p50_us", lookup.p50, "us"},
        {"lookup_p90_us", lookup.p90, "us"},
        {"create_p50_us", create.p50, "us"},
        {"create_p90_us", create.p90, "us"},
        {"unlink_p50_us", unlink.p50, "us"},
        {"rename_p50_us", rename.p50, "us"},
        {"rename_p90_us", rename.p90, "us"},
        {"success_ratio", 1 - error_rate, "ratio"},
        {"lookup_state_mib",
         static_cast<double>(after->LookupStateBytes()) / (1 << 20), "MiB"},
    };
  } else {
    // ---- per-layer metrics ----
    const Sample& s0 = *before;
    const Sample& s1 = *after;
    const auto d1 = [&](const char* c) {
      return static_cast<double>(s1.Sum(c) - s0.Sum(c));
    };
    const auto client_delta = [&](const char* c) {
      return static_cast<double>(s1.client.CounterOr(c) -
                                 s0.client.CounterOr(c));
    };
    const double lookups = static_cast<double>(lookup.count);
    const double levels =
        static_cast<double>(s1.LookupLevels() - s0.LookupLevels());
    const double probe_verifies =
        static_cast<double>(probe->window_verifies());

    std::vector<double> hit_us, miss_us;
    for (const Worker& w : workers) {
      for (const Span& s : w.spans.spans()) {
        if (s.parent != kNoParent || s.name != SpanName::kLookup) continue;
        (s.flags & kSpanFromCache ? hit_us : miss_us).push_back(s.DurationUs());
      }
    }
    std::array<std::vector<double>, 4> level_us;
    double peers = 0, false_routes = 0, traced_cascades = 0;
    for (const Worker& w : workers) {
      for (const auto& rec : w.traces) {
        ++traced_cascades;
        peers += rec.peers;
        false_routes += rec.false_route ? 1 : 0;
        for (int l = 0; l < rec.level && l < 4; ++l) {
          level_us[l].push_back(static_cast<double>(rec.level_ns[l]) / 1e3);
        }
      }
    }
    std::vector<std::uint64_t> frames_per_server;
    const auto f0 = s0.FramesInPerServer();
    const auto f1 = s1.FramesInPerServer();
    for (std::size_t i = 0; i < f0.size() && i < f1.size(); ++i) {
      frames_per_server.push_back(f1[i] - f0[i]);
    }
    const double hits = client_delta(names::kCacheHits);
    const double misses = client_delta(names::kCacheMisses);

    const double mutations =
        static_cast<double>(acked[static_cast<int>(OpKind::kCreate)] +
                            acked[static_cast<int>(OpKind::kUnlink)] +
                            acked[static_cast<int>(OpKind::kRename)]);
    // WAL size drops at a checkpoint; bytes per append come from the
    // servers that took none in between.
    double wal_bytes = 0, wal_appends_clean = 0;
    for (std::size_t i = 0; i < s0.servers.size() && i < s1.servers.size();
         ++i) {
      const auto& a = s0.servers[i].metrics;
      const auto& b = s1.servers[i].metrics;
      if (b.CounterOr(names::kStorageCheckpoints) !=
          a.CounterOr(names::kStorageCheckpoints)) {
        continue;
      }
      wal_bytes += static_cast<double>(b.CounterOr(names::kStorageWalBytes)) -
                   static_cast<double>(a.CounterOr(names::kStorageWalBytes));
      wal_appends_clean +=
          static_cast<double>(b.CounterOr(names::kStorageWalAppends) -
                              a.CounterOr(names::kStorageWalAppends));
    }
    const double appends_per_mutation =
        Ratio(d1(names::kStorageWalAppends), mutations);
    const double checkpoints = d1(names::kStorageCheckpoints);
    const double checkpoint_ms =
        Ratio(s1.HistogramSum(names::kStorageCheckpointDurationNs) -
                  s0.HistogramSum(names::kStorageCheckpointDurationNs),
              static_cast<double>(
                  s1.HistogramCount(names::kStorageCheckpointDurationNs) -
                  s0.HistogramCount(names::kStorageCheckpointDurationNs))) /
        1e6;
    const double traced_ops_per_s =
        Ratio(static_cast<double>(traced_ops), phase_s[1]);
    const double untraced_ops_per_s =
        Ratio(static_cast<double>(window_ops - traced_ops), phase_s[0]);

    std::vector<double> lock_wait = probe->lock_wait_us();
    std::vector<double> rtt = probe->rtt_us();
    const double rtt_p50 = Percentile(rtt, 0.5);
    const double invalidate_p50 = Percentile(replays.invalidate_us, 0.5);
    const double log_insert_p50 = Percentile(replays.log_insert_us, 0.5);
    const double cluster_lookup_p50 = Percentile(replays.cluster_lookup_us, 0.5);
    const double txn_drive_p50 = Percentile(replays.txn_drive_us, 0.5);

    metrics = {
        {"client.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"client.hit_us", Percentile(hit_us, 0.5), "us"},
        {"client.miss_us", Percentile(miss_us, 0.5), "us"},
        {"client.lease_us", Percentile(replays.lease_us, 0.5), "us"},
        {"client.leases_per_lookup",
         Ratio(d1(names::kServeLeaseGrants) + d1(names::kServeLeaseRefusals),
               lookups),
         "1/lookup"},
        {"client.invalidate_us", invalidate_p50, "us"},
        {"client.hot_promotions", client_delta(names::kCacheHotPromotions),
         "count"},
        {"cluster.lock_wait_us", Percentile(lock_wait, 0.9), "us"},
        {"cluster.lookup_us", cluster_lookup_p50, "us"},
        {"cluster.l1_us", Percentile(level_us[0], 0.5), "us"},
        {"cluster.l2_us", Percentile(level_us[1], 0.5), "us"},
        {"cluster.l3_us", Percentile(level_us[2], 0.5), "us"},
        {"cluster.l4_us", Percentile(level_us[3], 0.5), "us"},
        {"cluster.l1_share", Ratio(d1(names::kLookupsL1), levels), "ratio"},
        {"cluster.l2_share", Ratio(d1(names::kLookupsL2), levels), "ratio"},
        {"cluster.l3_share", Ratio(d1(names::kLookupsL3), levels), "ratio"},
        {"cluster.l4_share", Ratio(d1(names::kLookupsL4), levels), "ratio"},
        {"cluster.miss_share", Ratio(d1(names::kLookupsMiss), levels),
         "ratio"},
        {"cluster.msgs_per_lookup", replays.frames_per_lookup, "msgs/lookup"},
        {"cluster.peers_per_lookup", Ratio(peers, traced_cascades),
         "peers/lookup"},
        {"cluster.false_route_ratio", Ratio(false_routes, traced_cascades),
         "ratio"},
        {"cluster.rpc_retries",
         static_cast<double>(final_sample->client.CounterOr(names::kRpcRetries) -
                             s0.client.CounterOr(names::kRpcRetries)),
         "count"},
        {"server.rtt_us", rtt_p50, "us"},
        {"server.rtt_idle_us", Percentile(rtt_idle, 0.5), "us"},
        {"server.frames_per_op",
         Ratio(static_cast<double>(s1.FramesIn() - s0.FramesIn()) -
                   probe_verifies,
               static_cast<double>(window_ops)),
         "frames/op"},
        {"server.load_cv", CoefficientOfVariation(frames_per_server), "ratio"},
        {"server.verifies_per_lookup",
         Ratio(d1(names::kServeVerifies) - probe_verifies, levels),
         "1/lookup"},
        {"server.group_probes_per_lookup",
         Ratio(d1(names::kServeGroupProbes), levels), "1/lookup"},
        {"server.global_probes_per_lookup",
         Ratio(d1(names::kServeGlobalProbes), levels), "1/lookup"},
        {"bloom.may_contain_ns", replays.may_contain_ns, "ns"},
        {"bloom.state_bytes_per_file",
         Ratio(static_cast<double>(s1.LookupStateBytes()),
               static_cast<double>(s1.Files())),
         "B/file"},
        {"storage.wal_appends_per_mutation", appends_per_mutation,
         "1/mutation"},
        {"storage.fsyncs_per_mutation",
         Ratio(d1(names::kStorageWalFsyncs), mutations), "1/mutation"},
        {"storage.wal_bytes_per_mutation",
         Ratio(wal_bytes, wal_appends_clean) * appends_per_mutation,
         "B/mutation"},
        {"storage.log_insert_us", log_insert_p50, "us"},
        {"storage.checkpoints", checkpoints, "count"},
        {"storage.checkpoint_ms", checkpoint_ms, "ms"},
        {"txn.drive_us", txn_drive_p50, "us"},
        {"txn.msgs_per_rename", replays.txn_frames_per_rename, "msgs/rename"},
        {"txn.wal_appends_per_rename", replays.txn_wal_appends_per_rename,
         "1/rename"},
        {"txn.aborts",
         static_cast<double>(final_sample->Sum(names::kServeTxnAborts) -
                             s0.Sum(names::kServeTxnAborts)),
         "count"},
        {"trace.ops_per_s", traced_ops_per_s, "1/s"},
        {"trace.untraced_ops_per_s", untraced_ops_per_s, "1/s"},
        {"trace.overhead", 1 - Ratio(traced_ops_per_s, untraced_ops_per_s),
         "ratio"},
    };

    // Per-operation decomposition against the traced run's own p50s.
    const LookupBreakdown lb = BreakdownLookups(workers);
    PrintBreakdown("lookup", lb.p50_us,
                   {{"cluster.l1", lb.level_us[0]},
                    {"cluster.l2", lb.level_us[1]},
                    {"cluster.l3", lb.level_us[2]},
                    {"cluster.l4", lb.level_us[3]}});
    PrintBreakdown("create", create.p50,
                   {{"server.rtt", rtt_p50}, {"storage.log_insert", log_insert_p50}});
    PrintBreakdown("unlink", unlink.p50,
                   {{"cluster.lookup", cluster_lookup_p50},
                    {"server.rtt", rtt_p50},
                    {"storage.log_insert", log_insert_p50},
                    {"client.invalidate", invalidate_p50}});
    PrintBreakdown("rename", rename.p50,
                   {{"txn.drive", txn_drive_p50},
                    {"client.invalidate x2", 2 * invalidate_p50}});
    std::printf("tracing overhead: traced %.0f ops/s vs untraced %.0f ops/s "
                "(%.1f%%)\n",
                traced_ops_per_s, untraced_ops_per_s,
                100 * (1 - Ratio(traced_ops_per_s, untraced_ops_per_s)));

    // Spans stay in memory during the run and are written out here.
    const std::string span_file = args.work_dir + "/spans-" +
                                  WorkloadName(args.workload) + ".csv";
    if (std::FILE* f = std::fopen(span_file.c_str(), "w")) {
      std::fprintf(f, "thread,op_id,name,parent,start_ns,end_ns,flags\n");
      for (const Worker& w : workers) w.spans.WriteCsv(f, w.id, window_start);
      std::fclose(f);
      std::printf("spans: %s\n", span_file.c_str());
    }
  }

  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      violations.push_back("metric " + m.name + " is not finite");
      ++failed;
    }
  }
  for (const Worker& w : workers) {
    for (const auto& e : w.errors) violations.push_back(e);
  }

  // Human-readable report and provenance, then the result line.
  std::printf("provenance: {\"host_cores\": %u, \"build_type\": %s, "
              "\"git_sha\": %s, \"workload\": %s, \"seed\": %llu, "
              "\"client_threads\": %u, \"cluster\": \"%u MDS, M=%u, %zu "
              "groups, %u shards/server\", \"fsync\": \"%s\", "
              "\"data_dir_fs\": %s, \"trace\": %d, \"quick\": %d}\n",
              std::thread::hardware_concurrency(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(args.git_sha).c_str(),
              JsonString(WorkloadName(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), kClientThreads,
              kNumMds, kGroupSize, cluster.NumGroups(), kServerShards,
              ghba::FsyncPolicyName(run->config().storage.fsync),
              JsonString(FilesystemOf(run_dir)).c_str(), args.trace ? 1 : 0,
              args.quick ? 1 : 0);
  std::printf("setup_s:");
  for (const double s : setup_s) std::printf(" %.3f", s);
  std::printf("\nwindow: %.2fs, %llu ops, median %.0f ops/s over %zu "
              "slices:",
              window_s, static_cast<unsigned long long>(window_ops),
              ops_per_s, slices);
  for (const double rate : slice_rates) std::printf(" %.0f", rate);
  std::printf("\n");
  for (int k = 0; k < kOpKinds; ++k) {
    std::printf("%-6s p50=%.1fus p90=%.1fus p99=%.1fus n=%zu\n",
                OpKindName(static_cast<OpKind>(k)), lat[k].p50, lat[k].p90,
                lat[k].p99, lat[k].count);
  }
  std::printf("error_rate: %.6f (%llu failed or wrong of %llu attempted, "
              "%llu wrong answers)\n",
              error_rate, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(wrong));
  std::printf("op_stream_digest: %016llx\n",
              static_cast<unsigned long long>(workers[0].gen.digest()));
  for (const auto& v : violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
  }
  const bool correct = violations.empty() && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return perfbench::RunBenchmark(args);
}

// ghba_stats — live per-level observability for a running cluster.
//
//   $ ghba_stats [--json] [--watch <seconds>] <port> [<port> ...]
//
// Polls every listed MDS (mds_daemon processes or a PrototypeCluster's
// ServerPorts()) with a kStatsSnapshot RPC and renders the paper's
// evaluation quantities from live servers: per-level hit counts and ratios
// (Fig. 13), lookup latency percentiles (Figs. 8-10, 14), and filter
// memory (Table 5 / LookupStateBytes), plus the share of request frames
// the event thread answered inline (serve.inline_requests / frames_in: how
// often the idle-shard fast path fires). `--json` emits one machine-readable
// document per poll for scraping; `--watch N` re-polls every N seconds
// until interrupted.
//
// Exit status: 0 on success, 1 if any server could not be polled.
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

using namespace ghba;

namespace {

std::atomic<bool> g_stop{false};
void HandleSignal(int) { g_stop.store(true); }

/// One polled server, or the reason it could not be polled.
struct Polled {
  std::uint16_t port = 0;
  bool ok = false;
  std::string error;
  StatsSnapshotResp snap;
};

Polled PollOne(std::uint16_t port) {
  Polled out;
  out.port = port;
  const auto deadline = Deadline::After(std::chrono::seconds(5));
  auto conn = TcpConnection::Connect(port, deadline);
  if (!conn.ok()) {
    out.error = conn.status().ToString();
    return out;
  }
  if (const auto s =
          conn->SendFrame(EncodeHeader(MsgType::kStatsSnapshot), deadline);
      !s.ok()) {
    out.error = s.ToString();
    return out;
  }
  auto resp = conn->RecvFrame(deadline);
  if (!resp.ok()) {
    out.error = resp.status().ToString();
    return out;
  }
  ByteReader in(*resp);
  const auto env = OpenEnvelope(in);
  if (!env.ok()) {
    out.error = env.status().ToString();
    return out;
  }
  if (!env->has_payload) {
    out.error = env->status.ToString();
    return out;
  }
  auto snap = DecodeStatsSnapshotResp(in);
  if (!snap.ok()) {
    out.error = snap.status().ToString();
    return out;
  }
  out.ok = true;
  out.snap = std::move(*snap);
  return out;
}

QueryLevelValues LevelsOf(const MetricsSnapshot& m) {
  QueryLevelValues v;
  v.l1 = m.CounterOr(metrics_names::kLookupsL1);
  v.l2 = m.CounterOr(metrics_names::kLookupsL2);
  v.l3 = m.CounterOr(metrics_names::kLookupsL3);
  v.l4 = m.CounterOr(metrics_names::kLookupsL4);
  v.miss = m.CounterOr(metrics_names::kLookupsMiss);
  return v;
}

/// Percent of `frames_in` that the event thread answered inline.
double InlinePercent(std::uint64_t inline_requests, std::uint64_t frames_in) {
  if (frames_in == 0) return 0.0;
  return 100.0 * static_cast<double>(inline_requests) /
         static_cast<double>(frames_in);
}

HistogramStats LatencyOf(const MetricsSnapshot& m) {
  const auto it = m.histograms.find(metrics_names::kLatencyLookupMs);
  return it == m.histograms.end() ? HistogramStats{} : it->second;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    switch (c) {
      case '"': std::fputs("\\\"", stdout); break;
      case '\\': std::fputs("\\\\", stdout); break;
      case '\n': std::fputs("\\n", stdout); break;
      case '\t': std::fputs("\\t", stdout); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::printf("\\u%04x", c);
        } else {
          std::putchar(c);
        }
    }
  }
  std::putchar('"');
}

void PrintJson(const std::vector<Polled>& servers) {
  QueryLevelValues total;
  std::uint64_t total_lookups = 0;
  std::printf("{\"servers\":[");
  bool first = true;
  for (const auto& p : servers) {
    if (!first) std::putchar(',');
    first = false;
    if (!p.ok) {
      std::printf("{\"port\":%u,\"ok\":false,\"error\":", p.port);
      PrintJsonString(p.error);
      std::putchar('}');
      continue;
    }
    const auto& s = p.snap;
    const auto levels = LevelsOf(s.metrics);
    total.l1 += levels.l1;
    total.l2 += levels.l2;
    total.l3 += levels.l3;
    total.l4 += levels.l4;
    total.miss += levels.miss;
    total_lookups += LatencyOf(s.metrics).count;
    std::printf("{\"port\":%u,\"ok\":true,\"mds_id\":%u,"
                "\"files\":%" PRIu64 ",\"replicas\":%" PRIu64
                ",\"frames_in\":%" PRIu64 ",\"frames_out\":%" PRIu64
                ",\"lookup_state_bytes\":%" PRIu64,
                p.port, s.mds_id, s.files, s.replicas, s.frames_in,
                s.frames_out, s.lookup_state_bytes);
    std::printf(",\"counters\":{");
    bool c_first = true;
    for (const auto& [name, value] : s.metrics.counters) {
      if (!c_first) std::putchar(',');
      c_first = false;
      PrintJsonString(name);
      std::printf(":%" PRIu64, value);
    }
    std::printf("},\"histograms\":{");
    bool h_first = true;
    for (const auto& [name, h] : s.metrics.histograms) {
      if (!h_first) std::putchar(',');
      h_first = false;
      PrintJsonString(name);
      std::printf(":{\"count\":%" PRIu64
                  ",\"mean\":%.6g,\"min\":%.6g,\"max\":%.6g,"
                  "\"p50\":%.6g,\"p99\":%.6g}",
                  h.count, h.mean(), h.min, h.max, h.p50, h.p99);
    }
    std::printf("}}");
  }
  // The aggregate restates Fig. 13: per-level counts plus the total number
  // of finished lookups (the latency histogram's count). Scrapers assert
  // l1+l2+l3+l4+miss == lookups as the accounting invariant.
  std::printf("],\"aggregate\":{\"lookups\":%" PRIu64 ",\"l1\":%" PRIu64
              ",\"l2\":%" PRIu64 ",\"l3\":%" PRIu64 ",\"l4\":%" PRIu64
              ",\"miss\":%" PRIu64 "}}\n",
              total_lookups, total.l1, total.l2, total.l3, total.l4,
              total.miss);
}

void PrintTable(const std::vector<Polled>& servers) {
  std::printf(
      "MDS   files  replicas  state_KiB   lookups    L1%%    L2%%    L3%%"
      "    L4%%  miss%%   p50ms   p99ms  inline%%\n");
  QueryLevelValues total;
  HistogramStats total_lat;
  std::uint64_t total_files = 0, total_replicas = 0, total_state = 0;
  std::uint64_t total_inline = 0, total_frames = 0;
  for (const auto& p : servers) {
    if (!p.ok) {
      std::printf(":%u unreachable: %s\n", p.port, p.error.c_str());
      continue;
    }
    const auto& s = p.snap;
    const auto levels = LevelsOf(s.metrics);
    const auto lat = LatencyOf(s.metrics);
    total.l1 += levels.l1;
    total.l2 += levels.l2;
    total.l3 += levels.l3;
    total.l4 += levels.l4;
    total.miss += levels.miss;
    total_lat.count += lat.count;
    total_lat.sum += lat.sum;
    total_files += s.files;
    total_replicas += s.replicas;
    total_state += s.lookup_state_bytes;
    const std::uint64_t inline_requests =
        s.metrics.CounterOr(metrics_names::kServeInlineRequests);
    total_inline += inline_requests;
    total_frames += s.frames_in;
    std::printf("%3u %7" PRIu64 " %9" PRIu64 " %10.1f %9" PRIu64
                " %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %7.3f %7.3f"
                "  %6.1f%%\n",
                s.mds_id, s.files, s.replicas,
                static_cast<double>(s.lookup_state_bytes) / 1024.0,
                levels.total(), 100 * levels.Fraction(levels.l1),
                100 * levels.Fraction(levels.l2),
                100 * levels.Fraction(levels.l3),
                100 * levels.Fraction(levels.l4),
                100 * levels.Fraction(levels.miss), lat.p50, lat.p99,
                InlinePercent(inline_requests, s.frames_in));
  }
  std::printf("ALL %7" PRIu64 " %9" PRIu64 " %10.1f %9" PRIu64
              " %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%    mean %7.3f"
              "  %6.1f%%\n",
              total_files, total_replicas,
              static_cast<double>(total_state) / 1024.0, total.total(),
              100 * total.Fraction(total.l1), 100 * total.Fraction(total.l2),
              100 * total.Fraction(total.l3), 100 * total.Fraction(total.l4),
              100 * total.Fraction(total.miss), total_lat.mean(),
              InlinePercent(total_inline, total_frames));
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int watch_seconds = 0;
  std::vector<std::uint16_t> ports;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_seconds = std::atoi(argv[++i]);
    } else {
      const int port = std::atoi(argv[i]);
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr, "bad port '%s'\n", argv[i]);
        return 2;
      }
      ports.push_back(static_cast<std::uint16_t>(port));
    }
  }
  if (ports.empty()) {
    std::fprintf(stderr,
                 "usage: %s [--json] [--watch <seconds>] <port> [<port>...]\n",
                 argv[0]);
    return 2;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  while (true) {
    std::vector<Polled> servers;
    servers.reserve(ports.size());
    bool all_ok = true;
    for (const auto port : ports) {
      servers.push_back(PollOne(port));
      all_ok = all_ok && servers.back().ok;
    }
    if (json) {
      PrintJson(servers);
    } else {
      PrintTable(servers);
    }
    std::fflush(stdout);
    if (watch_seconds <= 0 || g_stop.load()) return all_ok ? 0 : 1;
    for (int i = 0; i < watch_seconds * 10 && !g_stop.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_stop.load()) return all_ok ? 0 : 1;
    if (!json) std::printf("\n");
  }
}

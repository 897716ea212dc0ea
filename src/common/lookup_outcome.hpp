// The one lookup-result type shared by the simulator and the TCP prototype.
//
// The paper's evaluation is entirely about *where* queries resolve (per-level
// hit ratios, Fig. 13) and what they cost (Figs. 8-10, 14-15). Both stacks —
// the trace-driven simulation (src/core) and the loopback prototype
// (src/rpc) — report the same schema, so Fig. 13-style numbers can be
// produced from either path, and every outcome carries a LookupTrace with
// enough detail to attribute its cost to a hierarchy level.
#pragma once

#include <array>
#include <cstdint>

namespace ghba {

/// Identifier of a metadata server. Dense small integers in the simulator;
/// the TCP prototype maps them to endpoints.
using MdsId = std::uint32_t;
constexpr MdsId kInvalidMds = static_cast<MdsId>(-1);

/// Per-query trace: where the lookup went and what each level cost.
/// Levels are 1-based (L1 = local LRU array .. L4 = global multicast);
/// index `i` of `level_elapsed_ns` is the time attributed to level i+1.
/// The round that asks the entry and its group at once is charged to L1.
struct LookupTrace {
  std::uint8_t level = 0;  ///< deepest level reached, 1..4 (0 = not run)
  std::array<std::uint64_t, 4> level_elapsed_ns{};  ///< per-level elapsed
  std::uint32_t peers_contacted = 0;  ///< distinct servers messaged
  std::uint32_t retries = 0;          ///< transport-level retransmissions
  bool false_route = false;  ///< a unique hit verified wrong along the way

  std::uint64_t TotalElapsedNs() const {
    std::uint64_t total = 0;
    for (const auto ns : level_elapsed_ns) total += ns;
    return total;
  }
};

/// Outcome of one metadata lookup (simulation or live prototype).
struct LookupOutcome {
  bool found = false;
  MdsId home = kInvalidMds;    ///< home MDS when found
  double latency_ms = 0;       ///< end-to-end operation latency
  int served_level = 0;        ///< 1..4 = L1..L4 (4 also covers true misses)
  std::uint64_t messages = 0;  ///< network messages this lookup caused
  bool from_cache = false;  ///< served by the client's leased lookup cache
  /// Lease the home recorded for this answer when the lookup asked for one
  /// (prototype only); 0 = no lease, do not cache.
  std::uint32_t lease_ttl_ms = 0;
  LookupTrace trace;
};

}  // namespace ghba

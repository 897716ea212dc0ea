// Latency model for the trace-driven simulator.
//
// All constants are in milliseconds and calibrated to the paper's testbed
// era (GbE LAN, 7200rpm disks, DRAM-speed Bloom probes):
//   * a Bloom-filter probe is a handful of cache lines  -> ~0.2 us,
//   * a LAN round trip                                  -> ~0.20 ms,
//   * a group multicast completes when the slowest of M'-1 peers answers,
//   * a global multicast spans groups (switch hop, more fan-out),
//   * a random disk access                              -> ~8 ms.
// The absolute values matter less than their ordering (disk >> network >>
// memory); the figures reproduce shapes, not testbed milliseconds.
#pragma once

#include <cstdint>

namespace ghba {

struct LatencyModel {
  double bf_probe_ms = 0.0002;       ///< one filter membership test
  double local_proc_ms = 0.01;       ///< request parse + dispatch on an MDS
  double lan_rtt_ms = 0.20;          ///< one request/response round trip
  double multicast_extra_hop_ms = 0.05;  ///< added per extra fan-out stage
  double disk_access_ms = 8.0;       ///< random seek + read
  /// Probing one Bloom filter whose pages spilled to disk. Less than a full
  /// random access: the k probe bits share pages and the OS page cache
  /// absorbs part of the working set.
  double spilled_probe_ms = 1.5;
  double mem_metadata_ms = 0.002;    ///< metadata fetch when cached in RAM
  double metadata_cache_hit = 0.90;  ///< probability home metadata is cached

  /// Probing `filters` Bloom filters in local memory.
  double ArrayProbe(std::uint64_t filters) const {
    return static_cast<double>(filters) * bf_probe_ms;
  }

  /// Round trip to one remote MDS.
  double Unicast() const { return lan_rtt_ms; }

  /// Multicast to `fanout` peers and gather all replies: one RTT plus a
  /// slowest-straggler term that grows with fan-out.
  double Multicast(std::uint64_t fanout) const {
    if (fanout == 0) return 0.0;
    return lan_rtt_ms + multicast_extra_hop_ms * static_cast<double>(fanout);
  }

  /// Expected cost of reading authoritative metadata on the home MDS,
  /// given the fraction of the metadata working set resident in memory.
  double MetadataRead(double cache_hit_prob) const {
    return cache_hit_prob * mem_metadata_ms +
           (1.0 - cache_hit_prob) * disk_access_ms;
  }
};

}  // namespace ghba

#include "core/config.hpp"

#include "bloom/bloom_math.hpp"
#include "hash/hash_family.hpp"

namespace ghba {

Status ValidateClusterConfig(const ClusterConfig& config) {
  if (config.num_mds == 0) {
    return Status::InvalidArgument("num_mds must be >= 1");
  }
  if (config.max_group_size == 0) {
    return Status::InvalidArgument("max_group_size must be >= 1");
  }
  if (config.initial_group_size > config.max_group_size) {
    return Status::InvalidArgument(
        "initial_group_size cannot exceed max_group_size");
  }
  if (config.bits_per_file <= 0) {
    return Status::InvalidArgument("bits_per_file must be positive");
  }
  // The probe generator caps k; an extreme bit ratio would silently lose
  // accuracy, so reject it loudly instead.
  if (OptimalK(config.bits_per_file, 1.0) >= ProbeSet::kMaxK) {
    return Status::InvalidArgument(
        "bits_per_file too large: optimal k exceeds the probe cap");
  }
  if (config.expected_files_per_mds == 0) {
    return Status::InvalidArgument("expected_files_per_mds must be >= 1");
  }
  if (config.lru_capacity == 0) {
    return Status::InvalidArgument("lru_capacity must be >= 1");
  }
  if (config.publish_after_mutations == 0) {
    return Status::InvalidArgument(
        "publish_after_mutations must be >= 1 (1 = publish on every "
        "mutation)");
  }
  const LatencyModel& lat = config.latency;
  if (lat.bf_probe_ms < 0 || lat.lan_rtt_ms < 0 || lat.disk_access_ms < 0 ||
      lat.spilled_probe_ms < 0 || lat.local_proc_ms < 0 ||
      lat.mem_metadata_ms < 0 || lat.multicast_extra_hop_ms < 0) {
    return Status::InvalidArgument("latency constants must be non-negative");
  }
  if (lat.metadata_cache_hit < 0 || lat.metadata_cache_hit > 1) {
    return Status::InvalidArgument("metadata_cache_hit must be in [0, 1]");
  }
  const RpcOptions& rpc = config.rpc;
  if (rpc.connect_timeout_ms == 0 || rpc.attempt_timeout_ms == 0 ||
      rpc.ping_timeout_ms == 0) {
    return Status::InvalidArgument("rpc timeouts must be >= 1 ms");
  }
  if (rpc.call_budget_ms < rpc.attempt_timeout_ms) {
    return Status::InvalidArgument(
        "rpc.call_budget_ms must cover at least one attempt");
  }
  if (rpc.max_attempts == 0 || rpc.ping_attempts == 0 ||
      rpc.suspect_after == 0) {
    return Status::InvalidArgument(
        "rpc attempt/ping/suspect counts must be >= 1");
  }
  // Each shard is a worker thread owning a state slice; beyond a small
  // multiple of the core count extra shards only cost memory and context
  // switches, so an absurd value is a misconfiguration, not ambition.
  if (rpc.server_shards == 0 || rpc.server_shards > 64) {
    return Status::InvalidArgument("rpc.server_shards must be in [1, 64]");
  }
  const StorageOptions& storage = config.storage;
  if (storage.fsync == FsyncPolicy::kInterval &&
      storage.fsync_interval_appends == 0) {
    return Status::InvalidArgument(
        "storage.fsync_interval_appends must be >= 1");
  }
  // A checkpoint threshold below one WAL frame would checkpoint after
  // every mutation; treat it as a misconfiguration.
  if (!storage.data_dir.empty() && storage.checkpoint_wal_bytes < 4096) {
    return Status::InvalidArgument(
        "storage.checkpoint_wal_bytes must be >= 4096");
  }
  if (storage.keep_checkpoints == 0) {
    return Status::InvalidArgument("storage.keep_checkpoints must be >= 1");
  }
  const HotSpotOptions& hot = config.hotspot;
  if (hot.sketch_width == 0 || hot.sketch_depth == 0) {
    return Status::InvalidArgument(
        "hotspot sketch geometry must be >= 1 in both dimensions");
  }
  if (hot.hot_threshold == 0) {
    return Status::InvalidArgument("hotspot.hot_threshold must be >= 1");
  }
  if (hot.shed_enabled && hot.shed_queue_depth == 0) {
    return Status::InvalidArgument(
        "hotspot.shed_queue_depth must be >= 1 when shedding is enabled");
  }
  return Status::Ok();
}

}  // namespace ghba

#include "client/client.hpp"

#include <chrono>
#include <thread>

#include "core/metrics.hpp"

namespace ghba {

namespace {
std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Result<std::unique_ptr<Client>> Client::Open(ClusterConfig config,
                                             ProtoScheme scheme,
                                             ClientOptions options) {
  auto cluster = std::make_unique<PrototypeCluster>(std::move(config), scheme);
  if (Status s = cluster->Start(); !s.ok()) return s;
  PrototypeCluster* raw = cluster.get();
  return std::unique_ptr<Client>(
      new Client(std::move(cluster), raw, std::move(options)));
}

std::unique_ptr<Client> Client::Attach(PrototypeCluster* cluster,
                                       ClientOptions options) {
  return std::unique_ptr<Client>(
      new Client(nullptr, cluster, std::move(options)));
}

Client::Client(std::unique_ptr<PrototypeCluster> owned,
               PrototypeCluster* cluster, ClientOptions options)
    : options_(std::move(options)),
      owned_(std::move(owned)),
      cluster_(cluster),
      sketch_(options_.sketch_width, options_.sketch_depth, /*seed=*/0x5EED),
      cache_hits_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheHits)),
      cache_misses_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheMisses)),
      cache_expired_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheExpiredLease)),
      cache_stale_epoch_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheStaleEpoch)),
      cache_invalidations_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheInvalidations)),
      cache_hot_promotions_(cluster_->metrics().shared_registry()->counter(
          metrics_names::kCacheHotPromotions)) {
  cluster_->RegisterCache(&inbox_);
}

Client::~Client() {
  cluster_->DeregisterCache(&inbox_);
  if (owned_) owned_->Stop();
}

std::uint64_t Client::NowMs() const {
  return options_.clock_ms ? options_.clock_ms() : SteadyNowMs();
}

bool Client::CacheProbe(const std::string& path, std::uint64_t epoch,
                        std::uint64_t now, LookupOutcome* out) {
  const auto it = cache_.find(path);
  if (it == cache_.end()) return false;
  CacheEntry& entry = it->second;
  if (entry.epoch != epoch) {
    // The topology moved under this lease (migration, join, leave or
    // fail-over all bump the epoch); the placement it memoized may be
    // wrong, so the entry dies regardless of its remaining TTL.
    ++cache_stale_epoch_;
    lru_.erase(entry.lru_pos);
    cache_.erase(it);
    return false;
  }
  if (now >= entry.expiry_ms) {
    ++cache_expired_;
    lru_.erase(entry.lru_pos);
    cache_.erase(it);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  out->found = true;
  out->home = entry.home;
  out->served_level = 0;  // the cascade never ran
  out->from_cache = true;
  return true;
}

void Client::CacheInsert(const std::string& path, MdsId home,
                         std::uint64_t epoch, std::uint64_t expiry_ms) {
  if (const auto it = cache_.find(path); it != cache_.end()) {
    it->second.home = home;
    it->second.epoch = epoch;
    it->second.expiry_ms = expiry_ms;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  while (cache_.size() >= options_.cache_capacity && !lru_.empty()) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(path);
  cache_[path] = CacheEntry{home, epoch, expiry_ms, lru_.begin()};
}

void Client::CacheErase(const std::string& path) {
  if (const auto it = cache_.find(path); it != cache_.end()) {
    ++cache_invalidations_;
    lru_.erase(it->second.lru_pos);
    cache_.erase(it);
  }
}

void Client::DrainRevoked() {
  if (!inbox_.pending.load(std::memory_order_acquire)) return;
  for (const std::string& path : cluster_->TakeRevoked(&inbox_)) {
    CacheErase(path);
  }
}

void Client::NoteAccess(const std::string& path, MdsId home,
                        std::uint64_t epoch) {
  // Periodic halving keeps the sketch tracking the *recent* stream: a key
  // must sustain its rate across decays to stay hot, so yesterday's flash
  // crowd ages out instead of pinning replicas forever.
  const std::uint64_t period =
      std::max<std::uint64_t>(4096, 64ULL * options_.hot_threshold);
  if (sketch_.total() >= period) sketch_.Decay();
  const std::uint64_t estimate = sketch_.Add(path);
  if (!options_.hot_replication || home == kInvalidMds) return;
  if (estimate < options_.hot_threshold) return;
  if (const auto it = promoted_.find(path);
      it != promoted_.end() && it->second == epoch) {
    return;  // already replicated under this topology
  }
  // Best-effort: a failed replication just leaves the hot path on its
  // designated holders; the next access over threshold retries.
  if (cluster_->ReplicateHotEntry(home).ok()) {
    promoted_[path] = epoch;
    ++cache_hot_promotions_;
  }
}

Result<LookupOutcome> Client::Lookup(const std::string& path) {
  MutexLock lock(&mu_);
  DrainRevoked();
  // Epoch read strictly BEFORE the cascade: if a reconfiguration bumps it
  // mid-lookup, the entry below is stamped with the older epoch and the
  // next probe discards it — staleness always errs toward a re-lookup.
  const std::uint64_t epoch = cluster_->RoutingEpoch();
  const std::uint64_t now = NowMs();

  if (options_.cache_enabled) {
    LookupOutcome cached;
    if (CacheProbe(path, epoch, now, &cached)) {
      ++cache_hits_;
      NoteAccess(path, cached.home, epoch);
      return cached;
    }
    ++cache_misses_;
  }

  // With the cache on, the home leases its answer inside the cascade.
  const bool lease = options_.cache_enabled;
  auto result = cluster_->Lookup(path, lease);
  if (!result.ok() && result.status().code() == StatusCode::kRetryAfter) {
    // The home shed us off a hot, overloaded shard; one polite retry.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.retry_after_backoff_ms));
    result = cluster_->Lookup(path, lease);
  }
  if (!result.ok()) return result.status();

  NoteAccess(path, result->found ? result->home : kInvalidMds, epoch);

  // No lease (TTL 0: leasing off, or the home answered through a path that
  // recorded none) simply means "do not cache"; the answer stands.
  if (result->found && lease && result->lease_ttl_ms > 0) {
    CacheInsert(path, result->home, epoch, now + result->lease_ttl_ms);
  }
  return result;
}

Status Client::Insert(const std::string& path, const FileMetadata& metadata) {
  MutexLock lock(&mu_);
  DrainRevoked();
  return cluster_->Insert(path, metadata);
}

Status Client::InsertBatch(
    const std::vector<std::pair<std::string, FileMetadata>>& files) {
  MutexLock lock(&mu_);
  DrainRevoked();
  return cluster_->InsertBatch(files);
}

Status Client::Unlink(const std::string& path) {
  MutexLock lock(&mu_);
  DrainRevoked();
  CacheErase(path);  // the cluster's revocation skips a failed lookup
  promoted_.erase(path);
  return cluster_->Unlink(path);
}

Status Client::Rename(const std::string& src, const std::string& dst) {
  MutexLock lock(&mu_);
  DrainRevoked();
  promoted_.erase(src);
  return cluster_->Rename(src, dst);
}

Status Client::CreateExclusive(const std::string& path,
                               const FileMetadata& metadata) {
  MutexLock lock(&mu_);
  DrainRevoked();
  return cluster_->CreateExclusive(path, metadata);
}

std::size_t Client::CacheSize() const {
  MutexLock lock(&mu_);
  return cache_.size();
}

}  // namespace ghba

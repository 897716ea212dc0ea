#include "rpc/prototype_cluster.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <utility>

#include "bloom/compressed.hpp"
#include "common/logging.hpp"
#include "hash/fnv.hpp"

namespace ghba {

namespace {
/// Sets a flag for the current scope, restoring the previous value on exit.
/// Used to suppress the automatic fail-over chase while a topology
/// operation walks plan_ across Calls: a failed Call inside such an
/// operation must only account health, never replace the plan out from
/// under its caller.
struct FlagGuard {
  explicit FlagGuard(bool& flag) : flag_(flag), saved_(flag) { flag = true; }
  ~FlagGuard() { flag_ = saved_; }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;
  bool& flag_;
  bool saved_;
};

/// The window of `reqs` that one kBatch frame carries from `off` on.
std::span<const std::vector<std::uint8_t>> BatchWindow(
    const std::vector<std::vector<std::uint8_t>>& reqs, std::size_t off) {
  return std::span(reqs).subspan(
      off, std::min<std::size_t>(static_cast<std::size_t>(kMaxBatchFrames),
                                 reqs.size() - off));
}

/// The `n` sub-responses of a kBatch reply.
Result<std::vector<std::vector<std::uint8_t>>> BatchRepliesOf(
    const Result<std::vector<std::uint8_t>>& resp, std::size_t n) {
  auto subs = PayloadOf(resp, DecodeBatchResp);
  if (!subs.ok()) return subs.status();
  if (subs->size() != n) {
    return Status::Corruption("batch response count mismatch");
  }
  return subs;
}

/// The first failure among a kBatch reply's sub-responses, else Ok.
Status SubStatusOf(const std::vector<std::vector<std::uint8_t>>& subs) {
  for (const auto& sub : subs) {
    ByteReader in(sub);
    const auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->status.ok()) return env->status;
  }
  return Status::Ok();
}

}  // namespace

PrototypeCluster::PrototypeCluster(ClusterConfig config, ProtoScheme scheme)
    : config_(std::move(config)),
      scheme_(scheme),
      rng_(config_.seed ^ 0x9999),
      health_(config_.rpc.suspect_after),
      rpc_retries_(metrics_.registry().counter(metrics_names::kRpcRetries)),
      rpc_timeouts_(metrics_.registry().counter(metrics_names::kRpcTimeouts)),
      rpc_failures_(metrics_.registry().counter(metrics_names::kRpcFailures)),
      rpc_suspected_(
          metrics_.registry().counter(metrics_names::kRpcSuspected)),
      rpc_failovers_(
          metrics_.registry().counter(metrics_names::kRpcFailovers)),
      router_(config_.rpc, config_.seed ^ 0x7007, &health_, &metrics_) {}

PrototypeCluster::~PrototypeCluster() { Stop(); }

void PrototypeCluster::set_fault_injector(FaultInjector* injector) {
  MutexLock lock(&mu_);
  injector_ = injector;
  router_.set_fault_injector(injector);
}

std::size_t PrototypeCluster::NumServers() const {
  MutexLock lock(&mu_);
  return servers_.size();
}

std::size_t PrototypeCluster::NumGroups() const {
  MutexLock lock(&mu_);
  return plan_.NumGroups();
}

Result<bool> PrototypeCluster::VerifyOn(MdsId id, const std::string& path) {
  Suspects suspects;
  auto result = router_.Verify(id, path, &suspects);
  FailOverSuspects(suspects);
  return result;
}

Status PrototypeCluster::StartServer(MdsId id) {
  auto server = std::make_unique<MdsServer>(id, config_);
  server->set_fault_injector(injector_);
  if (Status s = server->Start(); !s.ok()) return s;
  if (servers_.size() <= id) servers_.resize(id + 1);
  servers_[id] = std::move(server);
  health_.Forget(id);  // a fresh server starts with a clean slate
  return Status::Ok();
}

Status PrototypeCluster::Start() {
  MutexLock lock(&mu_);
  for (MdsId id = 0; id < config_.num_mds; ++id) {
    if (Status s = StartServer(id); !s.ok()) return s;
  }
  // HBA is the planner's M = 1: every server a group of its own, holding
  // every other server's replica.
  const std::uint32_t m =
      scheme_ == ProtoScheme::kHba ? 1 : config_.max_group_size;
  if (Status s = ApplyStepLocked(GroupPlan::PlanInitial(
          AliveServersLocked(), m, config_.initial_group_size,
          ReplicaPlacement::kLeastLoaded));
      !s.ok()) {
    return s;
  }
  started_ = true;
  return Status::Ok();
}

void PrototypeCluster::Stop() {
  MutexLock lock(&mu_);
  StopLocked();
}

void PrototypeCluster::StopLocked() {
  // Lookups see an empty cluster before the servers go.
  auto empty = std::make_shared<Topology>();
  empty->epoch = routing_epoch_;
  router_.Publish(std::move(empty));
  for (auto& server : servers_) {
    if (server) server->Stop();
  }
  started_ = false;
}

Result<std::vector<std::uint8_t>> PrototypeCluster::Call(
    MdsId id, const std::vector<std::uint8_t>& req) {
  Suspects suspects;
  auto resp = router_.Call(id, PortLocked(id), req, &suspects);
  NoteSuspectsLocked(suspects);
  return resp;
}

std::uint16_t PrototypeCluster::PortLocked(MdsId id) const {
  return id < servers_.size() && servers_[id] ? servers_[id]->port() : 0;
}

void PrototypeCluster::PublishTopologyLocked() {
  auto topo = std::make_shared<Topology>();
  topo->epoch = routing_epoch_;
  topo->grouped = scheme_ == ProtoScheme::kGhba;
  topo->port.assign(servers_.size(), 0);
  topo->group.resize(servers_.size());
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (!servers_[id]) continue;
    topo->port[id] = servers_[id]->port();
    topo->alive.push_back(id);
  }
  for (const auto& [gid, g] : plan_.groups()) {
    std::vector<MdsId> live;
    for (const MdsId m : g.members) {
      if (PortLocked(m) != 0) live.push_back(m);
    }
    for (const MdsId m : live) topo->group[m] = live;
  }
  router_.Publish(std::move(topo));
}

void PrototypeCluster::BumpEpochLocked() {
  ++routing_epoch_;
  PublishTopologyLocked();
}

void PrototypeCluster::NoteSuspectsLocked(const Suspects& suspects) {
  for (const Suspect& suspect : suspects) {
    if (in_failover_) return;  // repair traffic only accounts, never chases
    // An earlier suspect's fail-over may already have taken this one.
    if (PortLocked(suspect.id) != suspect.port) continue;
    if (!router_.ConfirmDead(suspect.port)) {
      health_.RecordSuccess(suspect.id);  // the heart-beat answered
      continue;
    }
    FailOverConfirmedLocked(suspect.id);
  }
}

void PrototypeCluster::FailOverSuspects(const Suspects& suspects) {
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    const Suspect& suspect = suspects[i];
    if (std::any_of(suspects.begin(),
                    suspects.begin() + static_cast<std::ptrdiff_t>(i),
                    [&suspect](const Suspect& seen) {
                      return seen.id == suspect.id && seen.port == suspect.port;
                    })) {
      continue;
    }
    // Heart-beat with nothing held: a ping round can take
    // ping_attempts x ping_timeout_ms.
    const bool dead = router_.ConfirmDead(suspect.port);
    MutexLock lock(&mu_);
    // Already failed over, or the id now names a newer incarnation.
    if (PortLocked(suspect.id) != suspect.port) continue;
    if (!dead) {
      health_.RecordSuccess(suspect.id);  // false alarm
      continue;
    }
    FailOverConfirmedLocked(suspect.id);
  }
}

void PrototypeCluster::FailOverConfirmedLocked(MdsId id) {
  health_.MarkDead(id);
  GHBA_LOG(kWarn) << "peer " << id
                 << " confirmed dead by heart-beat; running fail-over";
  if (Status s = FailOver(id); !s.ok()) {
    // Best effort: a partially repaired group still serves correctly via
    // the exact L4 path; the next detection retries coverage.
    GHBA_LOG(kWarn) << "fail-over of peer " << id
                   << " incomplete: " << s.ToString();
  }
}

Result<std::vector<BloomFilter>> PrototypeCluster::FetchFilters(
    const std::vector<MdsId>& owners) {
  const auto req = EncodeHeader(MsgType::kGetFilter);
  const std::vector<std::uint8_t>* const frame = &req;
  Suspects suspects;
  auto replies = router_.Scatter(PortsLocked(), owners, {&frame, 1},
                                 &suspects);
  NoteSuspectsLocked(suspects);
  std::vector<BloomFilter> filters;
  filters.reserve(owners.size());
  for (const Router::Reply& reply : replies) {
    auto filter = PayloadOf(reply.resp, DecompressFilter);
    if (!filter.ok()) return filter.status();
    filters.push_back(std::move(*filter));
  }
  return filters;
}

Result<BloomFilter> PrototypeCluster::FetchFilter(MdsId owner) {
  auto filters = FetchFilters({owner});
  if (!filters.ok()) return filters.status();
  return std::move(filters->front());
}

Result<std::vector<MdsId>> PrototypeCluster::MembershipOf(MdsId id) const {
  MutexLock lock(&mu_);
  if (!plan_.Contains(id)) return Status::Unavailable("server is in no group");
  return plan_.GroupOf(id).members;
}

Result<MdsId> PrototypeCluster::HolderOf(MdsId group_member,
                                         MdsId owner) const {
  MutexLock lock(&mu_);
  if (!plan_.Contains(group_member)) {
    return Status::NotFound("member is in no group");
  }
  const auto& holder = plan_.GroupOf(group_member).replica_holder;
  const auto it = holder.find(owner);
  if (it == holder.end()) {
    return Status::NotFound("group assigns no replica of this owner");
  }
  return it->second;
}

Result<bool> PrototypeCluster::HoldsReplica(MdsId holder, MdsId owner) {
  MutexLock lock(&mu_);
  auto resp = Call(holder, EncodeReplicaFetch(owner));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (env->has_payload) return true;
  if (env->status.code() == StatusCode::kNotFound) return false;
  return env->status;
}

Status PrototypeCluster::Insert(const std::string& path,
                                const FileMetadata& metadata) {
  MutexLock lock(&mu_);
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  const MdsId home = alive[rng_.NextBounded(alive.size())];
  return StatusOf(Call(home, EncodeInsert(path, metadata)));
}

Status PrototypeCluster::InsertBatch(
    const std::vector<std::pair<std::string, FileMetadata>>& files) {
  MutexLock lock(&mu_);
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  // Same placement distribution as Insert: each file independently draws a
  // uniformly random home. The batching is purely a wire-level grouping.
  Batches per_home;
  for (const auto& [path, md] : files) {
    const MdsId home = alive[rng_.NextBounded(alive.size())];
    per_home[home].push_back(EncodeInsert(path, md));
  }
  return SendBatchesLocked(per_home);
}

Result<LookupOutcome> PrototypeCluster::Lookup(const std::string& path,
                                               bool lease) {
  Suspects suspects;
  auto result = router_.Lookup(path, lease, &suspects);
  FailOverSuspects(suspects);
  return result;
}

Result<LookupOutcome> PrototypeCluster::LookupLocked(
    const std::string& path) {
  Suspects suspects;
  auto result = router_.Lookup(path, /*lease=*/false, &suspects,
                               /*teach_l1=*/false);
  NoteSuspectsLocked(suspects);
  return result;
}

Status PrototypeCluster::Unlink(const std::string& path) {
  MutexLock lock(&mu_);
  auto located = LookupLocked(path);
  if (!located.ok()) return located.status();
  if (!located->found) return Status::NotFound(path);
  auto resp = Call(located->home, EncodePathRequest(MsgType::kUnlink, path));
  // Whatever came back, the home may have removed the path.
  Revoke(path);
  return StatusOf(resp);
}

// --- distributed transactions (v5) ---

/// TxnDriver's transport over the cluster's Call() path. Each round trip
/// takes mu_ for itself: a drive holds no lock between messages, so
/// lookups, inserts and even fail-overs interleave with an in-flight
/// transaction — the same concurrency real daemons see.
struct PrototypeCluster::TxnBridge final : WireTxnTransport {
  explicit TxnBridge(PrototypeCluster* cluster) : c(cluster) {}

  /// An insert prepare and the exact check of its path in one round trip
  /// (Router::PrepareExact). A holder anywhere makes it AlreadyExists and
  /// leaves nothing staged: a yes vote is aborted before it returns. A
  /// peer it cannot reach leaves the verdict to the vote.
  Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) override {
    if (op.subop != TxnSubOp::kInsert) {
      return WireTxnTransport::TxnPrepare(participant, op);
    }
    ExactPrepare checked;
    {
      MutexLock lock(&c->mu_);
      Suspects suspects;
      checked = c->router_.PrepareExact(op.path, participant,
                                        PrepareFrame(op), &suspects);
      c->NoteSuspectsLocked(suspects);
    }
    auto vote = VoteOf(checked.vote);
    if (checked.holder == kInvalidMds || checked.holder == participant) {
      return vote;  // the participant's own AlreadyExists is in its vote
    }
    // Held on another server: refuse, and leave no intent lock or in-doubt
    // op behind. A missed abort resolves by presumed abort.
    if (vote.ok()) (void)TxnAbort(participant, op.txn_id, op.path);
    return Status::AlreadyExists(op.path);
  }
  /// TxnDriver's after_step hook (not part of the transport interface).
  bool AfterStep(TxnPhase phase, std::uint32_t k, MdsId target) {
    MutexLock lock(&c->mu_);
    return c->TxnStepLocked(phase, k, target);
  }

 private:
  Result<std::vector<std::uint8_t>> Call(
      MdsId server, const std::vector<std::uint8_t>& frame) override {
    MutexLock lock(&c->mu_);
    return c->Call(server, frame);
  }

  PrototypeCluster* c;
};

bool PrototypeCluster::TxnStepLocked(TxnPhase phase, std::uint32_t k,
                                     MdsId target) {
  if (injector_ == nullptr || !injector_->HasArmedCrashPoints()) return true;
  const std::string name = TxnPhaseName(phase);
  const std::string suffix = "." + std::to_string(k);
  if (injector_->ConsumeCrashPoint("txn." + name + suffix) ||
      injector_->ConsumeCrashPoint("txn." + name)) {
    // The server that just processed this message loses power. The driver
    // keeps going and hits the dead peer (or finishes without it) —
    // exactly what a machine failure mid-protocol looks like.
    PowerOffLocked(target);
    return true;
  }
  if (injector_->ConsumeCrashPoint("txnhalt." + name + suffix) ||
      injector_->ConsumeCrashPoint("txnhalt." + name)) {
    return false;  // the driving client dies at this boundary
  }
  return true;
}

void PrototypeCluster::PowerOffLocked(MdsId victim) {
  // The event loop stops, its pooled connections drop, every piece of
  // orchestrator bookkeeping stays. Detection then happens through failed
  // calls, as after a real machine failure.
  router_.DropPeer(PortLocked(victim));
  if (victim < servers_.size() && servers_[victim]) servers_[victim]->Stop();
}

std::uint64_t PrototypeCluster::NextTxnIdLocked() {
  // Lazy random seed: coordinator decision tables survive restarts, so a
  // fresh orchestrator over an old data_dir must not reuse ids an earlier
  // incarnation journaled. Id 0 is reserved by the wire codecs.
  while (next_txn_id_ == 0) next_txn_id_ = rng_.Next();
  return next_txn_id_++;
}

Status PrototypeCluster::Rename(const std::string& src,
                                const std::string& dst) {
  const Status status = RenameUnrevoked(src, dst);
  // On any outcome: a drive that failed part-way may have moved either name.
  Revoke(src);
  Revoke(dst);
  return status;
}

Status PrototypeCluster::RenameUnrevoked(const std::string& src,
                                         const std::string& dst) {
  if (src == dst) return Status::InvalidArgument("rename onto itself");
  MdsId src_home = kInvalidMds;
  MdsId dst_home = kInvalidMds;
  std::uint64_t txn_id = 0;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    if (alive.empty()) return Status::Unavailable("no servers");
    auto located = LookupLocked(src);
    if (!located.ok()) return located.status();
    if (!located->found) return Status::NotFound(src);
    src_home = located->home;
    // dst's exact check rides its insert prepare (TxnBridge::TxnPrepare).
    dst_home = alive[Fnv1a64(dst) % alive.size()];
    txn_id = NextTxnIdLocked();
  }
  TxnBridge bridge(this);
  TxnDriver driver(&bridge,
                   [&bridge](TxnPhase phase, std::uint32_t k, MdsId target) {
                     return bridge.AfterStep(phase, k, target);
                   });
  return driver.Rename(txn_id, src, src_home, dst, dst_home);
}

Status PrototypeCluster::CreateExclusive(const std::string& path,
                                         const FileMetadata& metadata) {
  MdsId home = kInvalidMds;
  std::uint64_t txn_id = 0;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    if (alive.empty()) return Status::Unavailable("no servers");
    // The exact check rides the insert prepare (TxnBridge::TxnPrepare):
    // the vote is authoritative on the hash home, which is where every
    // racing CreateExclusive for this path lands.
    home = alive[Fnv1a64(path) % alive.size()];
    txn_id = NextTxnIdLocked();
  }
  TxnBridge bridge(this);
  TxnDriver driver(&bridge,
                   [&bridge](TxnPhase phase, std::uint32_t k, MdsId target) {
                     return bridge.AfterStep(phase, k, target);
                   });
  return driver.CreateExclusive(txn_id, path, home, metadata);
}

Result<std::uint64_t> PrototypeCluster::ResolveInDoubt(MdsId id) {
  {
    MutexLock lock(&mu_);
    if (id >= servers_.size() || !servers_[id] || !servers_[id]->running()) {
      return Status::Unavailable("server is down");
    }
  }
  TxnBridge bridge(this);
  TxnDriver driver(&bridge);  // resolution is not a crash-point surface
  return driver.ResolveInDoubt(id);
}

Result<LeaseGrantResp> PrototypeCluster::RequestLease(
    MdsId home, const std::string& path) {
  Suspects suspects;
  auto result = router_.RequestLease(home, path, &suspects);
  FailOverSuspects(suspects);
  return result;
}

Status PrototypeCluster::InvalidatePath(const std::string& path) {
  Revoke(path);
  return Status::Ok();
}

void PrototypeCluster::Revoke(const std::string& path) {
  MutexLock lock(&caches_mu_);
  for (auto& [inbox, revoked] : caches_) {
    revoked.push_back(path);
    inbox->pending.store(true);
  }
}

void PrototypeCluster::RegisterCache(CacheInbox* inbox) {
  MutexLock lock(&caches_mu_);
  caches_.try_emplace(inbox);
}

void PrototypeCluster::DeregisterCache(CacheInbox* inbox) {
  MutexLock lock(&caches_mu_);
  caches_.erase(inbox);
}

std::vector<std::string> PrototypeCluster::TakeRevoked(CacheInbox* inbox) {
  MutexLock lock(&caches_mu_);
  inbox->pending.store(false);
  return std::exchange(caches_[inbox], {});
}

Result<std::uint32_t> PrototypeCluster::ReplicateHotEntry(MdsId owner) {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument(
        "hot replication requires the grouped scheme");
  }
  if (owner >= servers_.size() || !servers_[owner]) {
    return Status::NotFound("owner server is down");
  }
  FlagGuard guard(in_failover_);  // walks plan_ across Calls
  auto filter = FetchFilter(owner);
  if (!filter.ok()) return filter.status();
  Batches installs;
  for (const auto& [gid, g] : plan_.groups()) {
    const auto designated = g.replica_holder.find(owner);
    for (const MdsId m : g.members) {
      if (m == owner || m >= servers_.size() || !servers_[m]) continue;
      if (designated != g.replica_holder.end() && designated->second == m) {
        continue;
      }
      installs[m].push_back(EncodeReplicaInstall(owner, *filter));
    }
  }
  if (Status s = SendBatchesLocked(installs); !s.ok()) return s;
  const auto copies = static_cast<std::uint32_t>(installs.size());
  metrics_.replicas_migrated += copies;
  return copies;
}

Status PrototypeCluster::PublishAll() {
  MutexLock lock(&mu_);
  return RefreshLocked(AliveServersLocked());
}

Status PrototypeCluster::RefreshLocked(const std::vector<MdsId>& owners) {
  FlagGuard guard(in_failover_);  // iterates plan_ across Calls
  auto filters = FetchFilters(owners);
  if (!filters.ok()) return filters.status();
  Batches installs;
  for (std::size_t i = 0; i < owners.size(); ++i) {
    for (const auto& [gid, g] : plan_.groups()) {
      const auto it = g.replica_holder.find(owners[i]);
      if (it != g.replica_holder.end()) {
        installs[it->second].push_back(
            EncodeReplicaInstall(owners[i], (*filters)[i]));
      }
    }
  }
  return SendBatchesLocked(installs);
}

Topology PrototypeCluster::PortsLocked() const {
  Topology ports;
  ports.port.resize(servers_.size());
  for (MdsId id = 0; id < servers_.size(); ++id) {
    ports.port[id] = PortLocked(id);
  }
  return ports;
}

Status PrototypeCluster::SendBatchesLocked(const Batches& batches,
                                           Batches* out, const char* stage) {
  const Topology ports = PortsLocked();
  std::vector<const Batches::value_type*> open;  // servers with reqs left
  for (const auto& entry : batches) {
    if (!entry.second.empty()) open.push_back(&entry);
  }
  Status result = Status::Ok();
  for (std::size_t off = 0; !open.empty();
       off += static_cast<std::size_t>(kMaxBatchFrames)) {
    std::vector<MdsId> targets;
    std::vector<std::size_t> counts;
    std::vector<std::vector<std::uint8_t>> frames;
    for (const auto* entry : open) {
      const auto window = BatchWindow(entry->second, off);
      targets.push_back(entry->first);
      counts.push_back(window.size());
      frames.push_back(EncodeBatch(window));
    }
    std::vector<const std::vector<std::uint8_t>*> sends;
    for (const auto& frame : frames) sends.push_back(&frame);
    Suspects suspects;
    auto replies = router_.Scatter(ports, targets, sends, &suspects);
    NoteSuspectsLocked(suspects);
    std::vector<const Batches::value_type*> next;
    std::vector<MdsId> answered;
    for (std::size_t i = 0; i < open.size(); ++i) {
      auto subs = BatchRepliesOf(replies[i].resp, counts[i]);
      if (subs.ok()) answered.push_back(open[i]->first);
      Status s = subs.ok() ? SubStatusOf(*subs) : subs.status();
      if (!s.ok()) {
        if (result.ok()) result = std::move(s);
        continue;
      }
      if (out != nullptr) {
        auto& got = (*out)[open[i]->first];
        for (auto& sub : *subs) got.push_back(std::move(sub));
      }
      if (off + counts[i] < open[i]->second.size()) next.push_back(open[i]);
    }
    if (stage != nullptr) CrashPointsLocked(stage, answered);
    open = std::move(next);
  }
  return result;
}

Status PrototypeCluster::ApplyStepLocked(PlanStep step) {
  // The plan is the orchestrator's truth from here on: a failed install
  // leaves a holder's segment array behind it, which costs false routes
  // (the exact L4 path still answers) until PublishAll installs it.
  plan_ = std::move(step.plan);
  FlagGuard guard(in_failover_);  // the diff names servers across Calls
  reconfig_crash_.clear();
  // Net effect of the ordered ops per (holder, owner): what each server
  // installs, with where the bytes come from (kInvalidMds: the owner's own
  // filter; otherwise the copy on that old holder), and what it drops. A
  // replica installed and then moved or dropped within the diff never
  // travels to its intermediate holder.
  Installs installs;
  std::set<Slot> drops;
  for (const ReplicaOp& op : step.diff.ops) {
    switch (op.kind) {
      case ReplicaOp::Kind::kInstall:
        installs[{op.to, op.owner}] = kInvalidMds;
        drops.erase({op.to, op.owner});
        break;
      case ReplicaOp::Kind::kMove: {
        MdsId source = op.from;
        if (const auto it = installs.find({op.from, op.owner});
            it != installs.end()) {
          source = it->second;
          installs.erase(it);
        } else {
          drops.insert({op.from, op.owner});
        }
        installs[{op.to, op.owner}] = source;
        drops.erase({op.to, op.owner});
        break;
      }
      case ReplicaOp::Kind::kDrop:
        if (installs.erase({op.from, op.owner}) == 0) {
          drops.insert({op.from, op.owner});
        }
        break;
    }
  }
  // A departed server's filter leaves every survivor, which also purges
  // the L1 entries pointing at it. The departed server is sent nothing.
  const MdsId departed = step.diff.departed;
  if (departed != kInvalidMds) {
    for (const MdsId other : AliveServersLocked()) {
      drops.insert({other, departed});
    }
  }

  // Publish between the installs and the drops, whatever the installs
  // returned: every server started so far is in the snapshot, and until
  // the drops land both holders of a moved replica answer for it (the
  // dual-epoch window), so a lookup racing the change probes a superset of
  // the placements: duplicate messages, never a wrong miss.
  const Status result = InstallLocked(installs);
  BumpEpochLocked();
  // Drops are advisory: a missed one leaves a stale replica that costs
  // false routes, never a wrong answer. After a failed install none is
  // sent, so no old copy goes before its new one is in place.
  if (result.ok()) {
    Batches drop_reqs;
    for (const auto& [holder, owner] : drops) {
      if (holder != departed && PortLocked(holder) != 0) {
        drop_reqs[holder].push_back(EncodeReplicaDrop(owner));
      }
    }
    (void)SendBatchesLocked(drop_reqs, nullptr, "drop");  // advisory
  }
  if (!reconfig_crash_.empty()) {
    return Status::Unavailable("reconfiguration crashed at " +
                               reconfig_crash_);
  }
  return result;
}

Status PrototypeCluster::InstallLocked(const Installs& installs) {
  // Fetch: one scatter of kGetFilter frames to the owners, then one round
  // of kReplicaFetch batches to the old holders a move copies from.
  std::vector<MdsId> owners;
  Batches fetch_reqs;
  std::map<MdsId, std::vector<MdsId>> copied;  // old holder -> owners
  for (const auto& [slot, source] : installs) {
    if (source == kInvalidMds) {
      owners.push_back(slot.second);
    } else {
      copied[source].push_back(slot.second);
      fetch_reqs[source].push_back(EncodeReplicaFetch(slot.second));
    }
  }
  std::sort(owners.begin(), owners.end());
  owners.erase(std::unique(owners.begin(), owners.end()), owners.end());
  auto filters = FetchFilters(owners);
  if (!filters.ok()) return filters.status();
  CrashPointsLocked("fetch", owners);
  std::map<MdsId, BloomFilter> own;
  for (std::size_t i = 0; i < owners.size(); ++i) {
    own.emplace(owners[i], std::move((*filters)[i]));
  }
  // An old holder that did not answer (down, or it missed the install
  // that gave it the copy) is stood in for by the owner's own filter: one
  // more kGetFilter scatter, on that path only.
  Batches fetched;
  (void)SendBatchesLocked(fetch_reqs, &fetched, "fetch");
  std::map<Slot, BloomFilter> copies;
  std::vector<MdsId> refetch;
  for (const auto& [source, held] : copied) {
    const auto got = fetched.find(source);
    for (std::size_t i = 0; i < held.size(); ++i) {
      if (got != fetched.end() && i < got->second.size()) {
        if (auto filter = PayloadOf(got->second[i], DecompressFilter);
            filter.ok()) {
          copies.emplace(Slot{source, held[i]}, std::move(*filter));
          continue;
        }
      }
      if (own.count(held[i]) == 0) refetch.push_back(held[i]);
    }
  }
  std::sort(refetch.begin(), refetch.end());
  refetch.erase(std::unique(refetch.begin(), refetch.end()), refetch.end());
  if (!refetch.empty()) {
    auto refetched = FetchFilters(refetch);
    if (!refetched.ok()) return refetched.status();
    CrashPointsLocked("fetch", refetch);
    for (std::size_t i = 0; i < refetch.size(); ++i) {
      own.emplace(refetch[i], std::move((*refetched)[i]));
    }
  }

  // Install: one batch per receiving server.
  Batches install_reqs;
  for (const auto& [slot, source] : installs) {
    const auto& [holder, owner] = slot;
    const auto copy = copies.find(Slot{source, owner});
    const BloomFilter& filter =
        copy != copies.end() ? copy->second : own.at(owner);
    install_reqs[holder].push_back(EncodeReplicaInstall(owner, filter));
  }
  return SendBatchesLocked(install_reqs, nullptr, "install");
}

void PrototypeCluster::CrashPointsLocked(const char* stage,
                                         const std::vector<MdsId>& answered) {
  if (injector_ == nullptr || !injector_->HasArmedCrashPoints()) return;
  for (const MdsId id : answered) {
    std::string tag =
        std::string("reconfig.") + stage + "." + std::to_string(id);
    if (!injector_->ConsumeCrashPoint(tag)) continue;
    PowerOffLocked(id);
    if (reconfig_crash_.empty()) reconfig_crash_ = std::move(tag);
  }
}

Result<PrototypeCluster::ReconfigOutcome> PrototypeCluster::AddServer() {
  MutexLock lock(&mu_);
  FlagGuard guard(in_failover_);  // reconfigures across Calls
  const std::uint64_t frames_before = TotalFramesInLocked();
  // Recycle the lowest freed id (a removed or failed-over slot) before
  // growing the vector. StartServer resets the slot's health history, so
  // the new incarnation starts clean instead of inheriting its
  // predecessor's kDead state.
  MdsId nid = static_cast<MdsId>(servers_.size());
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (!servers_[id] && !plan_.Contains(id)) {
      nid = id;
      break;
    }
  }
  if (Status s = StartServer(nid); !s.ok()) return s;
  const Status joined = ApplyStepLocked(plan_.PlanJoin(nid, rng_));
  const std::uint64_t delta = TotalFramesInLocked() - frames_before;
  metrics_.reconfig_messages += delta;
  if (!joined.ok()) return joined;
  return ReconfigOutcome{nid, delta};
}

Status PrototypeCluster::SplitLargestGroup() {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument("splitting requires the grouped scheme");
  }
  if (plan_.NumGroups() == 0) return Status::NotFound("no groups");
  auto step = plan_.PlanSplit(plan_.LargestGroup());
  if (!step.ok()) return step.status();
  const std::uint64_t frames_before = TotalFramesInLocked();
  const Status result = ApplyStepLocked(std::move(*step));
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  return result;
}

Result<RecoveryInfoResp> PrototypeCluster::RestartServer(MdsId id) {
  Result<RecoveryInfoResp> info = Status::Unavailable("restart not attempted");
  {
    MutexLock lock(&mu_);
    info = RestartServerLocked(id);
  }
  if (!info.ok()) return info;
  // A durable server is back with its decision table, so the ops other
  // servers kept in doubt while it was down can be resolved now. They go
  // first: a committed rename's insert lands before its coordinator's
  // remove, so the file never has neither name.
  if (info->durable) {
    for (const MdsId other : AliveServers()) {
      if (other != id) (void)ResolveInDoubt(other);
    }
  }
  if (info->txn_in_doubt == 0) return info;
  // Recovery re-locked every prepared-but-undecided op (their paths
  // refuse plain mutations until resolved); consult each op's coordinator
  // now so committed renames roll forward and everything else rolls back
  // before the rejoined server takes real traffic. The count reported
  // back to the caller is what is STILL in doubt after this pass — an
  // unreachable coordinator leaves its ops for a later ResolveInDoubt.
  if (auto left = ResolveInDoubt(id); left.ok()) {
    info->txn_in_doubt = *left;
  }
  return info;
}

Result<RecoveryInfoResp> PrototypeCluster::RestartServerLocked(MdsId id) {
  if (id >= servers_.size()) return Status::NotFound("no such server");
  if (servers_[id] != nullptr && servers_[id]->running()) {
    return Status::AlreadyExists("server is still running");
  }
  // A crashed-but-undetected server still occupies the topology (its event
  // loop died but no call has failed yet): run the fail-over bookkeeping
  // first so the rejoin below starts from a clean slate, exactly as it
  // would after automatic detection.
  if (plan_.Contains(id)) {
    if (Status s = FailOver(id); !s.ok()) return s;
  }

  FlagGuard guard(in_failover_);  // reconfigures across Calls
  if (Status s = StartServer(id); !s.ok()) return s;

  // The new incarnation starts with an empty segment array (replicas are
  // memory-only), and the join installs exactly the replicas the holder
  // map assigns to it; nothing else in the cluster is touched. The join
  // publishes the started server whatever it returns, so a failed join
  // (a crash point included) is reported before the handshake runs.
  if (Status s = ApplyStepLocked(plan_.PlanJoin(id, rng_)); !s.ok()) {
    return s;
  }

  // Recovery handshake: what did its durable engine bring back? (Without
  // --data-dir: durable=false, zeros.)
  return PayloadOf(Call(id, EncodeHeader(MsgType::kRecoveryInfo)),
                   DecodeRecoveryInfoResp);
}

Result<BloomFilter> PrototypeCluster::FilterOf(MdsId id) {
  MutexLock lock(&mu_);
  return FetchFilter(id);
}

std::vector<MdsId> PrototypeCluster::AliveServers() const {
  MutexLock lock(&mu_);
  return AliveServersLocked();
}

std::vector<MdsId> PrototypeCluster::AliveServersLocked() const {
  std::vector<MdsId> out;
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (servers_[id]) out.push_back(id);
  }
  return out;
}

Result<PrototypeCluster::ReconfigOutcome> PrototypeCluster::RemoveServer(
    MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  if (AliveServersLocked().size() == 1) {
    return Status::InvalidArgument("cannot remove the last server");
  }
  FlagGuard guard(in_failover_);  // reconfigures across Calls
  const std::uint64_t frames_before = TotalFramesInLocked();

  // The leaver's replicas move to its co-members and every survivor drops
  // its filter; a merge may follow. Once the plan is adopted the leaver is
  // in no group, so it drains whatever the executor returned, and the
  // first failure is returned at the end.
  PlanStep step = plan_.PlanLeave(id);
  std::vector<MdsId> receivers = std::move(step.diff.drain_targets);
  const Status applied = ApplyStepLocked(std::move(step));
  // The drain goes only to receivers still running after the executor (a
  // crash point may have powered one off), or to every running survivor
  // when none is.
  const auto running = [this, id](MdsId r) {
    return r != id && r < servers_.size() && servers_[r] &&
           servers_[r]->running();
  };
  std::erase_if(receivers, [&running](MdsId r) { return !running(r); });
  if (receivers.empty()) {
    for (const MdsId r : AliveServersLocked()) {
      if (running(r)) receivers.push_back(r);
    }
  }

  // Drain the files to the receivers. kExportFiles extracts and clears the
  // leaver's store, so until the receivers' re-inserts land the files live
  // only in this process: the drain gate keeps every lookup out of that
  // window. The snapshot without the leaver is published before the gate
  // opens, and so before the leaver stops: no lookup routes to a stopped
  // leaver.
  std::unique_ptr<MdsServer> leaver;
  bool exported = false;
  Status drained;
  {
    WriterMutexLock drain_gate(&router_.drain_gate());
    drained = DrainLocked(id, receivers, &exported);
    // A running leaver whose export failed still holds every file.
    if (exported || !servers_[id]->running()) {
      leaver = std::move(servers_[id]);
      PublishTopologyLocked();
    }
  }
  if (leaver == nullptr) {
    // Undo the leave as a join of the same id: the leaver re-enters the
    // plan and its filter goes back to its holders, so its files stay
    // reachable, and the leave's failure is returned. A failed rejoin
    // ends as any failed join does: published, its holders short until
    // PublishAll.
    (void)ApplyStepLocked(plan_.PlanJoin(id, rng_));
    metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
    return applied.ok() ? drained : applied;
  }

  // The receivers' filters changed: refresh their replicas, and nothing
  // else. The leaver's frame counter disappears with it, so fold it into
  // the delta first.
  const std::uint64_t victim_frames = leaver->frames_in();
  leaver->Stop();
  leaver.reset();
  // The departed id may be recycled by a later AddServer: its health
  // history must die with this incarnation, or the re-added server would
  // start life marked dead.
  health_.Forget(id);
  const Status refreshed = RefreshLocked(receivers);
  BumpEpochLocked();

  const std::uint64_t delta =
      TotalFramesInLocked() + victim_frames - frames_before;
  metrics_.reconfig_messages += delta;
  for (const Status& s : {applied, drained, refreshed}) {
    if (!s.ok()) return s;
  }
  return ReconfigOutcome{id, delta};
}

Status PrototypeCluster::DrainLocked(MdsId id,
                                     const std::vector<MdsId>& receivers,
                                     bool* exported) {
  if (receivers.empty()) return Status::Unavailable("no running receiver");
  auto files = PayloadOf(Call(id, EncodeHeader(MsgType::kExportFiles)),
                         DecodeFileListResp);
  if (!files.ok()) return files.status();
  *exported = true;
  // Round-robin the files across the receivers, then ship each receiver's
  // share as batched writes: one kBatch frame per kMaxBatchFrames inserts,
  // one CRC and one round-trip each, instead of a Call per file.
  Batches drain;
  std::size_t rr = 0;
  for (const auto& [path, md] : files->files) {
    drain[receivers[rr++ % receivers.size()]].push_back(
        EncodeInsert(path, md));
  }
  if (Status s = SendBatchesLocked(drain); !s.ok()) {
    return Status::Internal("drain re-insert failed: " + s.ToString());
  }
  return Status::Ok();
}

Status PrototypeCluster::KillServer(MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  if (AliveServersLocked().size() == 1) {
    return Status::InvalidArgument("cannot kill the last server");
  }
  return FailOver(id);
}

Status PrototypeCluster::CrashServer(MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  // Stop the event loop but leave every piece of orchestrator bookkeeping
  // (groups, replica maps, pooled connections, the published snapshot!)
  // untouched: from the client's point of view the machine just went dark.
  // The health tracker notices through failing calls and runs FailOver
  // without manual help.
  servers_[id]->Stop();
  return Status::Ok();
}

Status PrototypeCluster::FailOver(MdsId id) {
  // The crash (or its detection): no drain, no goodbye.
  FlagGuard guard(in_failover_);
  const std::uint64_t frames_before = TotalFramesInLocked();
  std::unique_ptr<MdsServer> dead =
      id < servers_.size() ? std::move(servers_[id]) : nullptr;
  const std::uint64_t victim_frames = dead ? dead->frames_in() : 0;
  health_.MarkDead(id);
  health_.RecordFailover(id);
  // Lookups stop routing to it before it stops.
  PublishTopologyLocked();
  if (dead) {
    dead->Stop();  // idempotent; a stalled loop still honours it
    dead.reset();
  }

  // Fail-over (Section 4.5): "the corresponding Bloom filters are removed
  // from the other MDSs" — every survivor drops the dead server's replica
  // and purges its L1 entries pointing there — and the dead server's group
  // re-installs what it held from the owners. The epoch bump makes clients
  // drop placements cached before the fail-over. The dead peer's health
  // verdict deliberately survives (tests assert the kDead state is visible
  // after automatic detection); only a graceful RemoveServer — or a
  // restart of the same id — clears it.
  const Status result = ApplyStepLocked(plan_.PlanFail(id));
  metrics_.reconfig_messages +=
      TotalFramesInLocked() + victim_frames - frames_before;
  return result;
}

Status PrototypeCluster::MigrateReplica(MdsId owner, MdsId to) {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument("migration requires the grouped scheme");
  }
  if (to >= servers_.size() || !servers_[to]) {
    return Status::NotFound("target server is down");
  }
  if (owner >= servers_.size() || !servers_[owner]) {
    return Status::NotFound("owner server is down");
  }
  if (!plan_.Contains(to)) return Status::NotFound("target is in no group");
  const auto& holders = plan_.GroupOf(to).replica_holder;
  const auto assignment = holders.find(owner);
  if (assignment == holders.end()) {
    return Status::NotFound("target's group holds no replica of this owner");
  }
  if (assignment->second == to) return Status::Ok();
  const std::uint64_t frames_before = TotalFramesInLocked();
  const Status result = ApplyStepLocked(plan_.PlanMove(owner, to));
  ++metrics_.replicas_migrated;
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  return result;
}

Result<AdaptiveDecision> PrototypeCluster::AdaptivityTick(
    AdaptivityController& controller) {
  AdaptivitySignals signals;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    signals.num_mds = static_cast<std::uint32_t>(alive.size());
    signals.num_groups = static_cast<std::uint32_t>(plan_.NumGroups());
    for (const auto& [gid, g] : plan_.groups()) {
      signals.largest_group = std::max(
          signals.largest_group, static_cast<std::uint32_t>(g.members.size()));
    }
    signals.max_group_size = config_.max_group_size;
    signals.memory_budget_bytes = config_.memory_budget_bytes * alive.size();
    signals.dead_peers =
        static_cast<std::uint32_t>(health_.DeadPeers().size());
    signals.lookups_total = metrics_.levels.total();
    signals.latency = MeasureComponents(metrics_);
    for (const MdsId id : alive) {
      auto snap = PayloadOf(Call(id, EncodeHeader(MsgType::kStatsSnapshot)),
                            DecodeStatsSnapshotResp);
      if (!snap.ok()) continue;  // a slow peer skips one sample
      signals.lookup_state_bytes += snap->lookup_state_bytes;
    }
  }

  AdaptiveDecision decision = controller.Evaluate(signals);
  // Applying can fail (a peer mid-crash, a group too small to split); the
  // decision still stands — the failure is appended as the diagnostic and
  // the next tick resamples and retries.
  const auto note_failure = [&decision](const Status& s) {
    if (!s.ok()) decision.reason += " (apply failed: " + s.ToString() + ")";
  };
  // Apply best-effort outside the sampling scope: each action takes mu_
  // itself, and a failed application leaves the reason as the diagnostic
  // for the caller while the next tick retries.
  switch (decision.action) {
    case AdaptiveAction::kAddServer:
      note_failure(AddServer().status());
      break;
    case AdaptiveAction::kRemoveServer: {
      MdsId victim = kInvalidMds;
      {
        MutexLock lock(&mu_);
        const auto alive = AliveServersLocked();
        if (alive.size() > 1) victim = alive.back();
      }
      if (victim != kInvalidMds) note_failure(RemoveServer(victim).status());
      break;
    }
    case AdaptiveAction::kSplitGroup:
      note_failure(SplitLargestGroup());
      break;
    case AdaptiveAction::kNone:
      break;
  }
  return decision;
}

MetricsSnapshot PrototypeCluster::ClientSnapshot() {
  const auto totals = health_.TotalCounts();
  rpc_retries_ = totals.retries;
  rpc_timeouts_ = totals.timeouts;
  rpc_failures_ = totals.failures;
  rpc_suspected_ = totals.suspected;
  rpc_failovers_ = totals.failovers;
  return metrics_.Snapshot();
}

Status PrototypeCluster::Quiesce(QuiesceReport* report) {
  return router_.Quiesce(report);
}

std::vector<std::uint16_t> PrototypeCluster::ServerPorts() const {
  MutexLock lock(&mu_);
  std::vector<std::uint16_t> ports;
  for (const auto& server : servers_) {
    if (server) ports.push_back(server->port());
  }
  return ports;
}

Result<StatsSnapshotResp> PrototypeCluster::FetchStats(MdsId id) {
  MutexLock lock(&mu_);
  return PayloadOf(Call(id, EncodeHeader(MsgType::kStatsSnapshot)),
                   DecodeStatsSnapshotResp);
}

std::uint64_t PrototypeCluster::TotalFramesIn() const {
  MutexLock lock(&mu_);
  return TotalFramesInLocked();
}

std::uint64_t PrototypeCluster::TotalFramesInLocked() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) {
    if (server) total += server->frames_in();
  }
  return total;
}

}  // namespace ghba

#include "rpc/prototype_cluster.hpp"

#include <algorithm>
#include <utility>

#include "bloom/compressed.hpp"
#include "common/logging.hpp"
#include "hash/fnv.hpp"

namespace ghba {

namespace {
/// Sets a flag for the current scope, restoring the previous value on exit.
/// Used to suppress the automatic fail-over chase while a topology
/// operation holds references into groups_/group_of_: a failed Call inside
/// such an operation must only account health, never mutate the topology
/// out from under its caller.
struct FlagGuard {
  explicit FlagGuard(bool& flag) : flag_(flag), saved_(flag) { flag = true; }
  ~FlagGuard() { flag_ = saved_; }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;
  bool& flag_;
  bool saved_;
};
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
  return groups_.size();
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
  if (scheme_ == ProtoScheme::kHba) {
    // Full mesh: one group containing everyone; every server holds every
    // other server's replica.
    GroupInfo g;
    for (MdsId id = 0; id < config_.num_mds; ++id) {
      g.members.push_back(id);
      group_of_[id] = 0;
    }
    groups_.push_back(std::move(g));
    for (MdsId holder = 0; holder < config_.num_mds; ++holder) {
      for (MdsId owner = 0; owner < config_.num_mds; ++owner) {
        if (owner == holder) continue;
        auto filter = FetchFilter(owner);
        if (!filter.ok()) return filter.status();
        if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) {
          return s;
        }
      }
    }
  } else {
    const std::uint32_t m = std::max<std::uint32_t>(config_.max_group_size, 1);
    for (MdsId id = 0; id < config_.num_mds; id += m) {
      GroupInfo g;
      for (MdsId i = id; i < std::min<MdsId>(id + m, config_.num_mds); ++i) {
        g.members.push_back(i);
        group_of_[i] = groups_.size();
      }
      groups_.push_back(std::move(g));
    }
    for (auto& g : groups_) {
      if (Status s = EnsureCoverage(g); !s.ok()) return s;
    }
  }
  BumpEpochLocked();
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
  for (const GroupInfo& g : groups_) {
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

Result<std::vector<std::vector<std::uint8_t>>> PrototypeCluster::CallBatch(
    MdsId id, const std::vector<std::vector<std::uint8_t>>& reqs) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(reqs.size());
  for (std::size_t off = 0; off < reqs.size();) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(kMaxBatchFrames), reqs.size() - off);
    const std::vector<std::vector<std::uint8_t>> window(
        reqs.begin() + static_cast<std::ptrdiff_t>(off),
        reqs.begin() + static_cast<std::ptrdiff_t>(off + n));
    auto resp = Call(id, EncodeBatch(window));
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    const auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->has_payload) {
      return env->status.ok()
                 ? Status::Corruption("batch response carries no payload")
                 : env->status;
    }
    auto subs = DecodeBatchResp(in);
    if (!subs.ok()) return subs.status();
    if (subs->size() != n) {
      return Status::Corruption("batch response count mismatch");
    }
    for (auto& sub : *subs) out.push_back(std::move(sub));
    off += n;
  }
  return out;
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

Result<BloomFilter> PrototypeCluster::FetchFilter(MdsId owner) {
  auto resp = Call(owner, EncodeHeader(MsgType::kGetFilter));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecompressFilter(in);
}

Status PrototypeCluster::InstallReplica(MdsId holder, MdsId owner,
                                        const BloomFilter& filter) {
  auto resp = Call(holder, EncodeReplicaInstall(owner, filter));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

MdsId PrototypeCluster::LightestMember(const GroupInfo& g) const {
  std::unordered_map<MdsId, std::size_t> load;
  for (const MdsId m : g.members) load[m] = 0;
  for (const auto& [owner, holder] : g.holder) ++load[holder];
  MdsId best = g.members.front();
  std::size_t best_load = static_cast<std::size_t>(-1);
  for (const MdsId m : g.members) {
    if (load[m] < best_load) {
      best_load = load[m];
      best = m;
    }
  }
  return best;
}

std::size_t PrototypeCluster::GroupWithRoom() const {
  std::size_t best = static_cast<std::size_t>(-1);
  std::size_t best_size = config_.max_group_size;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].members.size() < best_size) {
      best_size = groups_[i].members.size();
      best = i;
    }
  }
  return best;
}

Status PrototypeCluster::EnsureCoverage(GroupInfo& g) {
  FlagGuard guard(in_failover_);  // holds a reference into groups_
  const auto is_member = [&](MdsId id) {
    return std::find(g.members.begin(), g.members.end(), id) !=
           g.members.end();
  };
  // Drop replicas of co-members.
  std::vector<MdsId> to_drop;
  for (const auto& [owner, holder] : g.holder) {
    if (is_member(owner)) to_drop.push_back(owner);
  }
  for (const MdsId owner : to_drop) {
    // Best-effort cleanup: a failed drop leaves a stale replica that the
    // next reconfiguration sweep retires.
    (void)Call(g.holder[owner], EncodeReplicaDrop(owner));
    g.holder.erase(owner);
  }
  // Install missing outsider replicas.
  for (MdsId owner = 0; owner < servers_.size(); ++owner) {
    if (!servers_[owner] || is_member(owner) || g.holder.contains(owner)) {
      continue;
    }
    auto filter = FetchFilter(owner);
    if (!filter.ok()) return filter.status();
    const MdsId holder = LightestMember(g);
    if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) return s;
    g.holder[owner] = holder;
  }
  return Status::Ok();
}

Result<std::vector<MdsId>> PrototypeCluster::MembershipOf(MdsId id) const {
  MutexLock lock(&mu_);
  const auto git = group_of_.find(id);
  if (git == group_of_.end()) return Status::Unavailable("server is in no group");
  return groups_[git->second].members;
}

Result<MdsId> PrototypeCluster::HolderOf(MdsId group_member,
                                         MdsId owner) const {
  MutexLock lock(&mu_);
  const auto git = group_of_.find(group_member);
  if (git == group_of_.end()) return Status::NotFound("member is in no group");
  const auto& holder = groups_[git->second].holder;
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
  auto resp = Call(home, EncodeInsert(path, metadata));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

Status PrototypeCluster::InsertBatch(
    const std::vector<std::pair<std::string, FileMetadata>>& files) {
  MutexLock lock(&mu_);
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  // Same placement distribution as Insert: each file independently draws a
  // uniformly random home. The batching is purely a wire-level grouping.
  std::map<MdsId, std::vector<std::vector<std::uint8_t>>> per_home;
  for (const auto& [path, md] : files) {
    const MdsId home = alive[rng_.NextBounded(alive.size())];
    per_home[home].push_back(EncodeInsert(path, md));
  }
  for (auto& [home, reqs] : per_home) {
    auto resps = CallBatch(home, reqs);
    if (!resps.ok()) return resps.status();
    for (const auto& resp : *resps) {
      ByteReader in(resp);
      const auto env = OpenEnvelope(in);
      if (!env.ok()) return env.status();
      if (!env->status.ok()) return env->status;
    }
  }
  return Status::Ok();
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
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

// --- distributed transactions (v5) ---

/// TxnDriver's transport, bound to the cluster's Call() path. Every method
/// takes mu_ for exactly one message round-trip: a drive holds no lock
/// between messages, so lookups, inserts and even fail-overs interleave
/// with an in-flight transaction — the same concurrency real daemons see.
struct PrototypeCluster::TxnBridge final : TxnTransport {
  explicit TxnBridge(PrototypeCluster* cluster) : c(cluster) {}

  Status TxnBegin(MdsId coordinator, std::uint64_t txn_id,
                  const std::vector<MdsId>& participants) override {
    MutexLock lock(&c->mu_);
    return c->TxnBeginAt(coordinator, txn_id, participants);
  }
  Result<std::optional<FileMetadata>> TxnPrepare(
      MdsId participant, const TxnPendingOp& op) override {
    MutexLock lock(&c->mu_);
    return c->TxnPrepareAt(participant, op);
  }
  Status TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                   bool commit) override {
    MutexLock lock(&c->mu_);
    return c->TxnDecideAt(coordinator, txn_id, commit);
  }
  Status TxnCommit(MdsId participant, std::uint64_t txn_id,
                   const std::string& path) override {
    MutexLock lock(&c->mu_);
    return c->TxnFinishAt(MsgType::kTxnCommit, participant, txn_id, path);
  }
  Status TxnAbort(MdsId participant, std::uint64_t txn_id,
                  const std::string& path) override {
    MutexLock lock(&c->mu_);
    return c->TxnFinishAt(MsgType::kTxnAbort, participant, txn_id, path);
  }
  Result<std::vector<TxnPendingOp>> TxnList(MdsId server) override {
    MutexLock lock(&c->mu_);
    return c->TxnListAt(server);
  }
  Result<TxnResolution> TxnQueryDecision(MdsId coordinator,
                                         std::uint64_t txn_id) override {
    MutexLock lock(&c->mu_);
    return c->TxnQueryDecisionAt(coordinator, txn_id);
  }
  bool TxnServerConfirmedDead(MdsId server) override {
    MutexLock lock(&c->mu_);
    // The orchestrator's own bookkeeping is the truth here: a crashed or
    // removed server has a stopped (or absent) MdsServer object. A server
    // that is up but slow keeps its object running, so a transient stall
    // never masquerades as death and resolution stays in doubt instead of
    // presuming abort too eagerly.
    return server >= c->servers_.size() || !c->servers_[server] ||
           !c->servers_[server]->running();
  }
  /// TxnDriver's after_step hook (not part of the transport interface).
  bool AfterStep(TxnPhase phase, MdsId target) {
    MutexLock lock(&c->mu_);
    return c->TxnStepLocked(phase, target);
  }

  PrototypeCluster* c;
};

Status PrototypeCluster::TxnBeginAt(MdsId coordinator, std::uint64_t txn_id,
                                    const std::vector<MdsId>& participants) {
  TxnBeginReq req;
  req.txn_id = txn_id;
  req.participants = participants;
  auto resp = Call(coordinator, EncodeTxnBegin(req));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

Result<std::optional<FileMetadata>> PrototypeCluster::TxnPrepareAt(
    MdsId participant, const TxnPendingOp& op) {
  TxnPrepareReq req;
  req.path = op.path;
  req.txn_id = op.txn_id;
  req.coordinator = op.coordinator;
  req.subop = op.subop;
  req.participants = op.participants;
  req.metadata = op.metadata;
  auto resp = Call(participant, EncodeTxnPrepare(req));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  // A NO vote (NotFound, AlreadyExists, intent-locked, ...) arrives as a
  // plain status envelope; the driver turns it into an abort.
  if (!env->has_payload) return env->status;
  auto vote = DecodeTxnPrepareResp(in);
  if (!vote.ok()) return vote.status();
  if (!vote->has_metadata) return std::optional<FileMetadata>();
  return std::optional<FileMetadata>(std::move(vote->metadata));
}

Status PrototypeCluster::TxnDecideAt(MdsId coordinator, std::uint64_t txn_id,
                                     bool commit) {
  TxnDecideReq req;
  req.txn_id = txn_id;
  req.commit = commit;
  auto resp = Call(coordinator, EncodeTxnDecide(req));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

Status PrototypeCluster::TxnFinishAt(MsgType type, MdsId participant,
                                     std::uint64_t txn_id,
                                     const std::string& path) {
  TxnFinishReq req;
  req.path = path;
  req.txn_id = txn_id;
  auto resp = Call(participant, EncodeTxnFinish(type, req));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  return env->status;
}

Result<std::vector<TxnPendingOp>> PrototypeCluster::TxnListAt(MdsId server) {
  auto resp = Call(server, EncodeHeader(MsgType::kTxnList));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  auto list = DecodeTxnListResp(in);
  if (!list.ok()) return list.status();
  std::vector<TxnPendingOp> ops;
  ops.reserve(list->entries.size());
  for (auto& e : list->entries) {
    TxnPendingOp op;
    op.txn_id = e.txn_id;
    op.coordinator = e.coordinator;
    op.subop = e.subop;
    op.path = std::move(e.path);
    ops.push_back(std::move(op));
  }
  return ops;
}

Result<TxnResolution> PrototypeCluster::TxnQueryDecisionAt(
    MdsId coordinator, std::uint64_t txn_id) {
  auto resp = Call(coordinator, EncodeTxnResolve(txn_id));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  auto decoded = DecodeTxnResolveResp(in);
  if (!decoded.ok()) return decoded.status();
  switch (decoded->state) {
    case TxnDecisionState::kPending: return TxnResolution::kPending;
    case TxnDecisionState::kCommitted: return TxnResolution::kCommitted;
    case TxnDecisionState::kAborted: return TxnResolution::kAborted;
    case TxnDecisionState::kUnknown: break;
  }
  return TxnResolution::kUnknown;
}

bool PrototypeCluster::TxnStepLocked(TxnPhase phase, MdsId target) {
  // Position k within the phase names the crash point txn.<phase>.<k>;
  // count even when nothing is armed so the numbering never depends on
  // which other points a test consumed first.
  const std::uint32_t k = txn_step_seq_[static_cast<std::size_t>(phase)]++;
  if (injector_ == nullptr || !injector_->HasArmedCrashPoints()) return true;
  const std::string name = TxnPhaseName(phase);
  const std::string suffix = "." + std::to_string(k);
  if (injector_->ConsumeCrashPoint("txn." + name + suffix) ||
      injector_->ConsumeCrashPoint("txn." + name)) {
    // The server that just processed this message loses power. The driver
    // keeps going and hits the dead peer (or finishes without it) —
    // exactly what a machine failure mid-protocol looks like.
    CrashTxnLocked(target);
    return true;
  }
  if (injector_->ConsumeCrashPoint("txnhalt." + name + suffix) ||
      injector_->ConsumeCrashPoint("txnhalt." + name)) {
    return false;  // the driving client dies at this boundary
  }
  return true;
}

void PrototypeCluster::CrashTxnLocked(MdsId victim) {
  // Same power-loss semantics as CrashMigrationLocked: the event loop
  // stops, its pooled connections drop, every piece of orchestrator
  // bookkeeping stays. Detection then happens through failed calls, as
  // after a real machine failure.
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
    // Cheap refusal before any journaling; the prepare-insert vote
    // re-checks authoritatively under dst's intent lock.
    if (auto probe = LookupLocked(dst); probe.ok() && probe->found) {
      return Status::AlreadyExists(dst);
    }
    dst_home = alive[Fnv1a64(dst) % alive.size()];
    txn_id = NextTxnIdLocked();
    txn_step_seq_.fill(0);
  }
  TxnBridge bridge(this);
  TxnDriver driver(&bridge, [&bridge](TxnPhase phase, MdsId target) {
    return bridge.AfterStep(phase, target);
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
    // Cheap refusal for a path living anywhere in the cluster; the
    // prepare-insert vote is the authoritative check on the hash home,
    // which is where every racing CreateExclusive for this path lands.
    if (auto probe = LookupLocked(path); probe.ok() && probe->found) {
      return Status::AlreadyExists(path);
    }
    home = alive[Fnv1a64(path) % alive.size()];
    txn_id = NextTxnIdLocked();
    txn_step_seq_.fill(0);
  }
  TxnBridge bridge(this);
  TxnDriver driver(&bridge, [&bridge](TxnPhase phase, MdsId target) {
    return bridge.AfterStep(phase, target);
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
  FlagGuard guard(in_failover_);  // walks groups_ across Calls
  auto filter = FetchFilter(owner);
  if (!filter.ok()) return filter.status();
  std::uint32_t installs = 0;
  for (auto& g : groups_) {
    const auto designated = g.holder.find(owner);
    for (const MdsId m : g.members) {
      if (m == owner || m >= servers_.size() || !servers_[m]) continue;
      if (designated != g.holder.end() && designated->second == m) continue;
      if (Status s = InstallReplica(m, owner, *filter); !s.ok()) return s;
      ++installs;
    }
  }
  metrics_.replicas_migrated += installs;
  return installs;
}

Status PrototypeCluster::PublishAll() {
  MutexLock lock(&mu_);
  return PublishAllLocked();
}

Status PrototypeCluster::PublishAllLocked() {
  FlagGuard guard(in_failover_);  // iterates groups_ across Calls
  if (scheme_ == ProtoScheme::kHba) {
    for (MdsId owner = 0; owner < servers_.size(); ++owner) {
      if (!servers_[owner]) continue;
      auto filter = FetchFilter(owner);
      if (!filter.ok()) return filter.status();
      for (MdsId holder = 0; holder < servers_.size(); ++holder) {
        if (!servers_[holder] || holder == owner) continue;
        if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }
  for (MdsId owner = 0; owner < servers_.size(); ++owner) {
    if (!servers_[owner]) continue;
    auto filter = FetchFilter(owner);
    if (!filter.ok()) return filter.status();
    for (auto& g : groups_) {
      const auto it = g.holder.find(owner);
      if (it == g.holder.end()) continue;
      if (Status s = InstallReplica(it->second, owner, *filter); !s.ok()) {
        return s;
      }
    }
  }
  return Status::Ok();
}

Result<PrototypeCluster::ReconfigOutcome> PrototypeCluster::AddServer() {
  MutexLock lock(&mu_);
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();
  // Recycle the lowest freed id (a removed or failed-over slot) before
  // growing the vector. StartServer resets the slot's health history, so
  // the new incarnation starts clean instead of inheriting its
  // predecessor's kDead state.
  MdsId nid = static_cast<MdsId>(servers_.size());
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (!servers_[id] && !group_of_.contains(id)) {
      nid = id;
      break;
    }
  }
  if (Status s = StartServer(nid); !s.ok()) return s;
  if (Status s = JoinTopologyLocked(nid); !s.ok()) return s;
  BumpEpochLocked();
  const std::uint64_t delta = TotalFramesInLocked() - frames_before;
  metrics_.reconfig_messages += delta;
  return ReconfigOutcome{nid, delta};
}

Status PrototypeCluster::SplitGroupLocked(std::size_t victim) {
  GroupInfo& a = groups_[victim];
  const std::size_t move_count = a.members.size() / 2;
  if (move_count == 0) {
    return Status::InvalidArgument("group too small to split");
  }
  GroupInfo b;
  for (std::size_t i = 0; i < move_count; ++i) {
    b.members.push_back(a.members.back());
    a.members.pop_back();
  }
  // Replicas follow their holders into the new group.
  for (auto it = a.holder.begin(); it != a.holder.end();) {
    if (std::find(b.members.begin(), b.members.end(), it->second) !=
        b.members.end()) {
      b.holder[it->first] = it->second;
      it = a.holder.erase(it);
    } else {
      ++it;
    }
  }
  groups_.push_back(std::move(b));  // invalidates `a`
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
  }
  if (Status s = EnsureCoverage(groups_[victim]); !s.ok()) return s;
  if (Status s = EnsureCoverage(groups_.back()); !s.ok()) return s;
  BumpEpochLocked();
  return Status::Ok();
}

Status PrototypeCluster::SplitLargestGroup() {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument("splitting requires the grouped scheme");
  }
  if (groups_.empty()) return Status::NotFound("no groups");
  FlagGuard guard(in_failover_);  // SplitGroupLocked walks groups_
  const std::uint64_t frames_before = TotalFramesInLocked();
  std::size_t victim = 0;
  for (std::size_t gi = 1; gi < groups_.size(); ++gi) {
    if (groups_[gi].members.size() > groups_[victim].members.size()) {
      victim = gi;
    }
  }
  if (groups_[victim].members.size() < 2) {
    return Status::InvalidArgument("fullest group too small to split");
  }
  Status result = SplitGroupLocked(victim);
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  return result;
}

Status PrototypeCluster::JoinTopologyLocked(MdsId nid) {
  if (scheme_ == ProtoScheme::kHba) {
    GroupInfo& g = groups_.front();
    g.members.push_back(nid);
    group_of_[nid] = 0;
    // Exchange: newcomer receives all existing replicas, everyone installs
    // the newcomer's filter.
    auto fresh = FetchFilter(nid);
    if (!fresh.ok()) return fresh.status();
    for (MdsId other = 0; other < servers_.size(); ++other) {
      if (other == nid || !servers_[other]) continue;
      auto filter = FetchFilter(other);
      if (!filter.ok()) return filter.status();
      if (Status s = InstallReplica(nid, other, *filter); !s.ok()) return s;
      if (Status s = InstallReplica(other, nid, *fresh); !s.ok()) return s;
    }
  } else {
    std::size_t target = GroupWithRoom();
    if (target == static_cast<std::size_t>(-1)) {
      // Split a random full group: tail half forms a new group.
      const std::size_t victim = rng_.NextBounded(groups_.size());
      if (Status s = SplitGroupLocked(victim); !s.ok()) return s;
      target = GroupWithRoom();
    }
    GroupInfo& g = groups_[target];
    g.members.push_back(nid);
    group_of_[nid] = target;
    if (g.holder.contains(nid)) {
      // Best-effort retire of the old holder's copy; a miss leaves a
      // stale replica, not an inconsistency.
      (void)Call(g.holder[nid], EncodeReplicaDrop(nid));
      g.holder.erase(nid);
    }

    // Light-weight migration: overloaded members hand replicas to the
    // newcomer via fetch + install + drop.
    const std::size_t outsiders =
        AliveServersLocked().size() - g.members.size();
    const std::size_t target_load =
        (outsiders + g.members.size() - 1) / g.members.size();
    std::unordered_map<MdsId, std::vector<MdsId>> held;
    for (const auto& [owner, holder] : g.holder) held[holder].push_back(owner);
    for (const MdsId m : g.members) {
      if (m == nid) continue;
      auto& owners = held[m];
      while (owners.size() > target_load) {
        const MdsId owner = owners.back();
        owners.pop_back();
        auto resp = Call(m, EncodeReplicaFetch(owner));
        if (!resp.ok()) return resp.status();
        ByteReader in(*resp);
        auto env = OpenEnvelope(in);
        if (!env.ok()) return env.status();
        if (!env->has_payload) return env->status;
        auto filter = DecompressFilter(in);
        if (!filter.ok()) return filter.status();
        if (Status s = InstallReplica(nid, owner, *filter); !s.ok()) return s;
        // Install succeeded; the old copy is now merely redundant.
        (void)Call(m, EncodeReplicaDrop(owner));
        g.holder[owner] = nid;
      }
    }

    // The newcomer's replica goes to one member of each other group.
    auto fresh = FetchFilter(nid);
    if (!fresh.ok()) return fresh.status();
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      if (gi == target || groups_[gi].holder.contains(nid)) continue;
      const MdsId holder = LightestMember(groups_[gi]);
      if (Status s = InstallReplica(holder, nid, *fresh); !s.ok()) return s;
      groups_[gi].holder[nid] = holder;
    }
  }
  return Status::Ok();
}

Result<RecoveryInfoResp> PrototypeCluster::RestartServer(MdsId id) {
  Result<RecoveryInfoResp> info = Status::Unavailable("restart not attempted");
  {
    MutexLock lock(&mu_);
    info = RestartServerLocked(id);
  }
  if (!info.ok() || info->txn_in_doubt == 0) return info;
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
  if (group_of_.contains(id)) {
    if (Status s = FailOver(id); !s.ok()) return s;
  }

  FlagGuard guard(in_failover_);  // holds references into groups_
  if (Status s = StartServer(id); !s.ok()) return s;

  // Recovery handshake before the peer takes any traffic: what did its
  // durable engine bring back? (Without --data-dir: durable=false, zeros.)
  auto resp = Call(id, EncodeHeader(MsgType::kRecoveryInfo));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  auto info = DecodeRecoveryInfoResp(in);
  if (!info.ok()) return info.status();

  // The new incarnation starts with an empty segment array (replicas are
  // memory-only), and the join installs exactly the replicas the holder
  // map assigns to it; nothing else in the cluster is touched.
  if (Status s = JoinTopologyLocked(id); !s.ok()) return s;
  BumpEpochLocked();
  return *info;
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
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();

  if (scheme_ == ProtoScheme::kGhba) {
    const std::size_t gid = group_of_.at(id);
    GroupInfo& g = groups_[gid];
    // Move the replicas this server holds to its group peers.
    std::vector<MdsId> held;
    for (const auto& [owner, holder] : g.holder) {
      if (holder == id) held.push_back(owner);
    }
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    for (const MdsId owner : held) {
      auto resp = Call(id, EncodeReplicaFetch(owner));
      if (!resp.ok()) return resp.status();
      ByteReader in(*resp);
      auto env = OpenEnvelope(in);
      if (!env.ok()) return env.status();
      if (!env->has_payload) return env->status;
      auto filter = DecompressFilter(in);
      if (!filter.ok()) return filter.status();
      if (!g.members.empty()) {
        const MdsId target = LightestMember(g);
        if (Status s = InstallReplica(target, owner, *filter); !s.ok()) {
          return s;
        }
        g.holder[owner] = target;
      } else {
        g.holder.erase(owner);
      }
    }
    // Every survivor drops the leaver's replica/filter state and purges L1
    // entries pointing at it.
    for (const MdsId other : AliveServersLocked()) {
      // Leaver cleanup is advisory; failures leave stale replicas only.
      if (other != id) (void)Call(other, EncodeReplicaDrop(id));
    }
    for (auto& other : groups_) {
      other.holder.erase(id);
    }
    if (g.members.empty()) {
      groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gid));
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
      }
    }
  } else {
    GroupInfo& g = groups_.front();
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    for (const MdsId other : AliveServersLocked()) {
      if (other == id) continue;
      (void)Call(other, EncodeReplicaDrop(id));  // advisory, as above
    }
  }

  // Drain the files to the survivors. kExportFiles extracts and clears the
  // leaver's store, so until the survivors' re-inserts land the files live
  // only in this process: the drain gate keeps every lookup out of that
  // window. The snapshot without the leaver is published before the gate
  // opens, and so before the leaver stops: no lookup routes to a stopped
  // leaver.
  std::unique_ptr<MdsServer> leaver;
  {
    WriterMutexLock drain_gate(&router_.drain_gate());
    auto resp = Call(id, EncodeHeader(MsgType::kExportFiles));
    if (!resp.ok()) return resp.status();
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    if (!env.ok()) return env.status();
    if (!env->has_payload) return env->status;
    auto files = DecodeFileListResp(in);
    if (!files.ok()) return files.status();
    std::vector<MdsId> targets;
    for (const MdsId s : AliveServersLocked()) {
      if (s != id) targets.push_back(s);
    }
    // Round-robin the files across the survivors, then ship each
    // survivor's share as batched writes: one kBatch frame per
    // kMaxBatchFrames inserts, one CRC and one round-trip each, instead of
    // a Call per file.
    std::map<MdsId, std::vector<std::vector<std::uint8_t>>> drain;
    std::map<MdsId, std::vector<const std::string*>> drain_paths;
    std::size_t rr = 0;
    for (const auto& [path, md] : files->files) {
      const MdsId target = targets[rr++ % targets.size()];
      drain[target].push_back(EncodeInsert(path, md));
      drain_paths[target].push_back(&path);
    }
    for (auto& [target, reqs] : drain) {
      auto resps = CallBatch(target, reqs);
      if (!resps.ok()) return resps.status();
      for (std::size_t i = 0; i < resps->size(); ++i) {
        ByteReader rin((*resps)[i]);
        auto renv = OpenEnvelope(rin);
        if (!renv.ok()) return renv.status();
        if (!renv->status.ok()) {
          return Status::Internal("drain re-insert of " +
                                  *drain_paths[target][i] +
                                  " failed: " + renv->status.ToString());
        }
      }
    }
    leaver = std::move(servers_[id]);
    PublishTopologyLocked();
  }

  // The survivors' filters changed: refresh their replicas. The leaver's
  // frame counter disappears with it, so fold it into the delta first.
  const std::uint64_t victim_frames = leaver->frames_in();
  leaver->Stop();
  leaver.reset();
  // The departed id may be recycled by a later AddServer: its health
  // history must die with this incarnation, or the re-added server would
  // start life marked dead.
  health_.Forget(id);
  if (Status s = PublishAllLocked(); !s.ok()) return s;
  BumpEpochLocked();

  const std::uint64_t delta =
      TotalFramesInLocked() + victim_frames - frames_before;
  metrics_.reconfig_messages += delta;
  return ReconfigOutcome{id, delta};
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
  // (if it holds one) and purges its L1 entries pointing there.
  Status result = Status::Ok();
  for (const MdsId other : AliveServersLocked()) {
    // Failover cleanup is advisory: a survivor that misses the drop keeps
    // a stale replica, which costs false routes, never a wrong answer.
    (void)Call(other, EncodeReplicaDrop(id));
  }
  if (scheme_ == ProtoScheme::kGhba) {
    const std::size_t gid = group_of_.at(id);
    GroupInfo& g = groups_[gid];
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    // Replicas it held are gone with it; forget the bookkeeping.
    for (auto it = g.holder.begin(); it != g.holder.end();) {
      it = it->second == id ? g.holder.erase(it) : std::next(it);
    }
    for (auto& other : groups_) {
      other.holder.erase(id);
    }
    if (g.members.empty()) {
      groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gid));
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
      }
    } else {
      result = EnsureCoverage(g);
    }
  } else {
    GroupInfo& g = groups_.front();
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
  }
  // Clients drop placements cached before the fail-over. The dead peer's
  // health verdict deliberately survives (tests assert the kDead state is
  // visible after automatic detection); only a graceful RemoveServer — or
  // a restart of the same id — clears it.
  BumpEpochLocked();
  metrics_.reconfig_messages +=
      TotalFramesInLocked() + victim_frames - frames_before;
  return result;
}

Status PrototypeCluster::CrashMigrationLocked(MdsId victim,
                                              const char* phase) {
  // Power loss at a phase boundary: the event loop stops, every piece of
  // orchestrator bookkeeping stays (as CrashServer), and the caller's test
  // restarts the victim to see where the replica placement lands.
  router_.DropPeer(PortLocked(victim));
  if (victim < servers_.size() && servers_[victim]) servers_[victim]->Stop();
  return Status::Unavailable(std::string("migration crashed at phase ") +
                             phase);
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
  const auto git = group_of_.find(to);
  if (git == group_of_.end()) return Status::NotFound("target is in no group");
  GroupInfo& g = groups_[git->second];
  const auto assignment = g.holder.find(owner);
  if (assignment == g.holder.end()) {
    return Status::NotFound("target's group holds no replica of this owner");
  }
  const MdsId from = assignment->second;
  if (from == to) return Status::Ok();
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();

  // Phase 1 — prepare. Snapshot the owner's *current* filter and install
  // it in the new holder's memory. From here until retire, both holders
  // answer probes for the owner — the dual-epoch window: a lookup racing
  // the flip probes a superset of placements, so the window costs
  // duplicate messages, never a wrong miss.
  auto filter = FetchFilter(owner);
  if (!filter.ok()) return filter.status();
  if (Status s = InstallReplica(to, owner, *filter); !s.ok()) return s;
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(
          FaultInjector::MigrationPhase::kPrepare)) {
    // Routing still points at `from`: the copy on `to` dies with its
    // memory, and the rejoin installs only what the holder map assigns.
    return CrashMigrationLocked(to, "prepare");
  }

  // Phase 2 — flip: rewrite the holder map and bump the epoch. The commit
  // point: a restarted server receives exactly what this map assigns it,
  // so from here a crash completes the migration instead of undoing it.
  assignment->second = to;
  BumpEpochLocked();
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(FaultInjector::MigrationPhase::kFlip)) {
    return CrashMigrationLocked(from, "flip");
  }

  // Phase 3 — retire: the old holder drops its copy. The new copy is
  // installed, so a failed retire only leaves a stale duplicate.
  (void)Call(from, EncodeReplicaDrop(owner));
  ++metrics_.replicas_migrated;
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(
          FaultInjector::MigrationPhase::kRetire)) {
    return CrashMigrationLocked(from, "retire");
  }
  return Status::Ok();
}

Result<AdaptiveDecision> PrototypeCluster::AdaptivityTick(
    AdaptivityController& controller) {
  AdaptivitySignals signals;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    signals.num_mds = static_cast<std::uint32_t>(alive.size());
    signals.num_groups = static_cast<std::uint32_t>(groups_.size());
    for (const auto& g : groups_) {
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
      auto resp = Call(id, EncodeHeader(MsgType::kStatsSnapshot));
      if (!resp.ok()) continue;  // a slow peer skips one sample
      ByteReader in(*resp);
      auto env = OpenEnvelope(in);
      if (!env.ok() || !env->has_payload) continue;
      if (auto snap = DecodeStatsSnapshotResp(in); snap.ok()) {
        signals.lookup_state_bytes += snap->lookup_state_bytes;
      }
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

Status PrototypeCluster::Quiesce() { return router_.Quiesce(); }

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
  auto resp = Call(id, EncodeHeader(MsgType::kStatsSnapshot));
  if (!resp.ok()) return resp.status();
  ByteReader in(*resp);
  auto env = OpenEnvelope(in);
  if (!env.ok()) return env.status();
  if (!env->has_payload) return env->status;
  return DecodeStatsSnapshotResp(in);
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

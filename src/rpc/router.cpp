#include "rpc/router.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <thread>

#include "common/rng.hpp"

namespace ghba {

namespace {
double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::chrono::milliseconds Ms(std::int64_t ms) {
  return std::chrono::milliseconds(ms);
}

/// Transport-level failures worth a retry / health demerit; remote
/// application statuses (NotFound, AlreadyExists, ...) are not.
/// kCorruption only reaches this check from the framing layer (magic/CRC
/// mismatch on a response frame) or from a server rejecting a mangled
/// request — the payload decoders run later, at the call sites — so it
/// too means "the wire mangled it, try again fresh".
bool IsTransient(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kTimedOut ||
         s.code() == StatusCode::kCorruption;
}

/// True when a response frame is the server rejecting the *request* as
/// corrupt. Our encoders never emit malformed requests, so this means the
/// frame was mangled in flight — retrying on a fresh connection is safe.
bool IsRemoteCorruptionReject(const std::vector<std::uint8_t>& resp) {
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  return env.ok() && !env->has_payload &&
         env->status.code() == StatusCode::kCorruption;
}

/// What an insert prepare's reply says about the participant's own store,
/// checked under the path's intent lock: a yes vote (a payload) is
/// "absent", AlreadyExists is "held", and any other reply (a transport
/// failure, an intent lock held by another txn, ...) says nothing.
std::optional<bool> VoteHolds(const Result<std::vector<std::uint8_t>>& resp) {
  if (!resp.ok()) return std::nullopt;
  ByteReader in(*resp);
  const auto env = OpenEnvelope(in);
  if (!env.ok()) return std::nullopt;
  if (env->has_payload) return false;
  if (env->status.code() == StatusCode::kAlreadyExists) return true;
  return std::nullopt;
}

bool Has(const std::vector<MdsId>& ids, MdsId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Idle connections kept per peer. More concurrent callers than this open
/// extra connections, which close when returned to a full pool.
constexpr std::size_t kMaxIdlePerPeer = 8;
}  // namespace

struct Router::QueryCtx {
  std::shared_ptr<const Topology> topo;
  Suspects* suspects = nullptr;
  MdsId entry = kInvalidMds;
  bool lease = false;         ///< ask the home to lease its answer
  bool teach_l1 = true;       ///< a hit sends the entry a kTouchLru
  double start_ms = 0;
  double mark_ms = 0;         ///< start of the level in progress
  std::uint32_t retries = 0;  ///< attempts beyond the first, this lookup
  std::uint32_t lease_ttl_ms = 0;  ///< lease the home recorded, if any
  LookupTrace trace;
  std::vector<MdsId> contacted;  ///< distinct peers (entry excluded)
  /// Servers that answered "not here" for their own store: never asked
  /// again, and left out of the L4 multicast.
  std::vector<MdsId> absent;
  /// Servers already asked for a verdict that gave none usable (shed,
  /// unreachable): not verified again, but still probed at L4.
  std::vector<MdsId> asked;

  /// Fold in a probe reply's self-answer from `id`.
  void NoteVerdict(MdsId id, SelfVerdict verdict) {
    if (verdict == SelfVerdict::kAbsent) {
      absent.push_back(id);
    } else if (verdict == SelfVerdict::kShed) {
      asked.push_back(id);
    }
  }

  /// Attribute the wall-clock since `mark_ms` to `level` and restart the
  /// mark. Levels the query fell through keep their partial elapsed time.
  void CloseLevel(int level) {
    const double now = NowMs();
    trace.level_elapsed_ns[static_cast<std::size_t>(level - 1)] +=
        static_cast<std::uint64_t>((now - mark_ms) * 1e6);
    mark_ms = now;
  }
  /// Record one contact with `id` (dedup; the entry server is implied).
  void Contact(MdsId id) {
    if (id == entry) return;
    if (std::find(contacted.begin(), contacted.end(), id) != contacted.end()) {
      return;
    }
    contacted.push_back(id);
  }
};

Router::Router(const RpcOptions& rpc, std::uint64_t seed,
               PeerHealthTracker* health, ClusterMetrics* metrics)
    : rpc_(rpc),
      seed_(seed),
      health_(health),
      metrics_(metrics),
      topology_(std::make_shared<const Topology>()),
      pooled_for_(topology_) {}

void Router::Publish(std::shared_ptr<const Topology> topology) {
  epoch_.store(topology->epoch, std::memory_order_release);
  {
    MutexLock lock(&topo_mu_);
    topology_ = topology;
  }
  std::vector<TcpConnection> doomed;
  MutexLock lock(&pool_mu_);
  for (auto it = idle_.begin(); it != idle_.end();) {
    if (topology->Serves(it->first)) {
      ++it;
      continue;
    }
    doomed.insert(doomed.end(), std::make_move_iterator(it->second.begin()),
                  std::make_move_iterator(it->second.end()));
    it = idle_.erase(it);
  }
  pooled_for_ = std::move(topology);
}

std::shared_ptr<const Topology> Router::Snapshot() const {
  MutexLock lock(&topo_mu_);
  return topology_;
}

std::uint64_t Router::Draw(std::uint64_t bound) {
  const std::uint64_t n = draws_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t x = Mix64(seed_ + n * 0x9e3779b97f4a7c15ULL);
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * bound) >> 64);
}

Result<TcpConnection> Router::Checkout(std::uint16_t port,
                                       Deadline deadline) {
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  {
    MutexLock lock(&pool_mu_);
    if (auto it = idle_.find(port);
        it != idle_.end() && !it->second.empty()) {
      TcpConnection conn = std::move(it->second.back());
      it->second.pop_back();
      // A connection pooled before set_fault_injector picks it up here.
      conn.set_injector(injector);
      return conn;
    }
  }
  const int connect_budget =
      std::min<int>(static_cast<int>(rpc_.connect_timeout_ms),
                    std::max(deadline.PollTimeoutMs(), 1));
  return TcpConnection::Connect(port, Deadline::After(Ms(connect_budget)),
                                injector);
}

void Router::Return(std::uint16_t port, TcpConnection conn) {
  {
    MutexLock lock(&pool_mu_);
    // A server leaves the published snapshot before it stops, so no
    // connection to a stopped server is pooled.
    if (pooled_for_->Serves(port)) {
      auto& idle = idle_[port];
      if (idle.size() < kMaxIdlePerPeer) {
        idle.push_back(std::move(conn));
        return;
      }
    }
  }
  // Not pooled: `conn` closes here, outside the lock.
}

void Router::DropPeer(std::uint16_t port) {
  std::vector<TcpConnection> doomed;
  {
    MutexLock lock(&pool_mu_);
    const auto it = idle_.find(port);
    if (it == idle_.end()) return;
    doomed = std::move(it->second);
    idle_.erase(it);
  }
}

Result<std::vector<std::uint8_t>> Router::Call(
    MdsId id, std::uint16_t port, const std::vector<std::uint8_t>& req,
    Suspects* suspects, std::uint32_t* retries) {
  return Retry(id, port, req, 0, Status::Unavailable("call never attempted"),
               suspects, retries);
}

Result<std::vector<std::uint8_t>> Router::Retry(
    MdsId id, std::uint16_t port, const std::vector<std::uint8_t>& req,
    std::uint32_t first_attempt, Status last, Suspects* suspects,
    std::uint32_t* retries) {
  if (port == 0) return Status::Unavailable("server is down");
  const Deadline budget = Deadline::After(Ms(rpc_.call_budget_ms));
  // A non-transient failure of the attempt before `first_attempt` is final.
  const bool retryable = first_attempt == 0 || IsTransient(last);
  for (std::uint32_t attempt = first_attempt;
       retryable && attempt < rpc_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff, clipped to the remaining budget. The
      // sleep holds no mutex: other callers keep running meanwhile.
      const std::uint64_t base =
          static_cast<std::uint64_t>(rpc_.retry_backoff_ms) << (attempt - 1);
      const std::uint64_t wait = base / 2 + Draw(base + 1);
      const int remaining = budget.PollTimeoutMs();
      if (remaining <= 0) break;
      std::this_thread::sleep_for(Ms(static_cast<std::int64_t>(
          std::min<std::uint64_t>(wait,
                                  static_cast<std::uint64_t>(remaining)))));
    }
    const int remaining = budget.PollTimeoutMs();
    if (remaining <= 0) break;
    if (attempt > 0) {
      health_->RecordRetry(id);
      if (retries != nullptr) ++*retries;
    }
    // One attempt never outlives the call budget.
    const Deadline deadline = Deadline::After(
        Ms(std::min<std::int64_t>(rpc_.attempt_timeout_ms, remaining)));
    auto resp = Exchange(port, req, deadline);
    if (resp.ok()) {
      health_->RecordSuccess(id);
      return resp;
    }
    last = resp.status();
    if (last.code() == StatusCode::kTimedOut) health_->RecordTimeout(id);
    if (!IsTransient(last)) break;
  }
  if (health_->RecordFailure(id) == PeerState::kSuspected &&
      suspects != nullptr) {
    suspects->push_back(Suspect{id, port});
  }
  return last;
}

Result<std::vector<std::uint8_t>> Router::Exchange(
    std::uint16_t port, const std::vector<std::uint8_t>& req,
    Deadline deadline) {
  auto conn = Checkout(port, deadline);
  if (!conn.ok()) return conn.status();
  // On any failure below the connection closes with `conn`: one that
  // failed mid-exchange is never reused.
  if (Status s = conn->SendFrame(req, deadline); !s.ok()) return s;
  auto resp = conn->RecvFrame(deadline);
  if (!resp.ok()) return resp;
  if (IsRemoteCorruptionReject(*resp)) {
    return Status::Corruption("request mangled in flight");
  }
  Return(port, std::move(*conn));
  return resp;
}

std::vector<Router::Reply> Router::Scatter(
    const Topology& topo, const std::vector<MdsId>& targets,
    std::span<const std::vector<std::uint8_t>* const> frames,
    Suspects* suspects, std::uint32_t* retries) {
  struct Leg {
    TcpConnection conn;
    Status status = Status::Unavailable("never sent");
    bool sent = false;
  };
  const auto frame_of = [&frames](std::size_t i)
      -> const std::vector<std::uint8_t>& {
    return *frames[frames.size() == 1 ? 0 : i];
  };
  const Deadline deadline = Deadline::After(Ms(rpc_.attempt_timeout_ms));
  std::vector<Reply> replies(targets.size());
  std::vector<Leg> legs(targets.size());
  // Scatter: every frame goes out before any reply is read, so the targets
  // work on them in parallel.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    replies[i].id = targets[i];
    const std::uint16_t port = topo.PortOf(targets[i]);
    if (port == 0) continue;  // Retry() below reports it down
    auto conn = Checkout(port, deadline);
    if (!conn.ok()) {
      legs[i].status = conn.status();
      continue;
    }
    legs[i].conn = std::move(*conn);
    legs[i].status = legs[i].conn.SendFrame(frame_of(i), deadline);
    legs[i].sent = legs[i].status.ok();
  }
  // Gather, under the same deadline: the whole round costs one round trip.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    Leg& leg = legs[i];
    if (!leg.sent) continue;
    auto resp = leg.conn.RecvFrame(deadline);
    if (resp.ok() && IsRemoteCorruptionReject(*resp)) {
      resp = Status::Corruption("request mangled in flight");
    }
    if (!resp.ok()) {
      leg.status = resp.status();
      continue;
    }
    health_->RecordSuccess(targets[i]);
    Return(topo.PortOf(targets[i]), std::move(leg.conn));
    replies[i].resp = std::move(resp);
  }
  // Fallback: the fast path was attempt 0 of a per-peer Call.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (replies[i].resp.ok()) continue;
    Leg& leg = legs[i];
    leg.conn.Close();
    if (leg.status.code() == StatusCode::kTimedOut) {
      health_->RecordTimeout(targets[i]);
    }
    replies[i].resp = Retry(targets[i], topo.PortOf(targets[i]), frame_of(i),
                            /*first_attempt=*/1, leg.status, suspects,
                            retries);
  }
  return replies;
}

Status Router::OneWay(std::uint16_t port,
                      const std::vector<std::uint8_t>& frame) {
  if (port == 0) return Status::Unavailable("server is down");
  const Deadline deadline = Deadline::After(Ms(rpc_.attempt_timeout_ms));
  auto conn = Checkout(port, deadline);
  if (!conn.ok()) return conn.status();
  Status s = conn->SendFrame(frame, deadline);
  if (s.ok()) Return(port, std::move(*conn));
  return s;
}

bool Router::ConfirmDead(std::uint16_t port) {
  if (port == 0) return true;
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  const auto ping = EncodeHeader(MsgType::kPing);
  for (std::uint32_t i = 0; i < rpc_.ping_attempts; ++i) {
    // Fresh connection per probe: a pooled one may be the thing that is
    // broken. Probes go through the fault injector like any other frame —
    // a real heart-beat shares the network with the traffic it monitors.
    const auto deadline = Deadline::After(Ms(rpc_.ping_timeout_ms));
    auto conn = TcpConnection::Connect(port, deadline, injector);
    if (!conn.ok()) continue;
    if (!conn->SendFrame(ping, deadline).ok()) continue;
    const auto resp = conn->RecvFrame(deadline);
    if (resp.ok()) return false;  // alive after all
    // A checksum-mangled response still proves the peer's loop answered:
    // corruption is the wire's doing, not the peer's silence.
    if (resp.status().code() == StatusCode::kCorruption) return false;
  }
  return true;
}

Status Router::Quiesce(QuiesceReport* report) {
  std::unordered_map<std::uint16_t, std::vector<TcpConnection>> idle;
  {
    MutexLock lock(&pool_mu_);
    idle.swap(idle_);
  }
  const auto ping = EncodeHeader(MsgType::kPing);
  Status result = Status::Ok();
  std::vector<std::uint16_t> failed;  // a ping failed, not confirmed dead
  std::vector<std::uint16_t> down;
  for (auto& [port, conns] : idle) {
    for (auto& conn : conns) {
      const Deadline deadline = Deadline::After(Ms(rpc_.attempt_timeout_ms));
      Status s = conn.SendFrame(ping, deadline);
      if (s.ok()) {
        const auto resp = conn.RecvFrame(deadline);
        if (!resp.ok()) s = resp.status();
      }
      if (s.ok()) {
        Return(port, std::move(conn));
        continue;
      }
      if (ConfirmDead(port)) {
        // Its other idle connections close with `idle`; none drains.
        DropPeer(port);
        down.push_back(port);
        break;
      }
      failed.push_back(port);
      if (result.ok()) result = s;
    }
  }
  if (report != nullptr) {
    *report = QuiesceReport{};
    const auto topo = Snapshot();
    for (const MdsId id : topo->alive) {
      const std::uint16_t port = topo->PortOf(id);
      if (std::find(down.begin(), down.end(), port) != down.end()) {
        report->down.push_back(id);
      } else if (std::find(failed.begin(), failed.end(), port) ==
                 failed.end()) {
        report->drained.push_back(id);
      }
    }
  }
  return result;
}

Status Router::StartQuery(QueryCtx& q, Suspects* suspects, bool lease,
                          bool teach_l1) {
  q.topo = Snapshot();
  q.suspects = suspects;
  q.lease = lease;
  q.teach_l1 = teach_l1;
  q.start_ms = NowMs();
  q.mark_ms = q.start_ms;
  if (q.topo->alive.empty()) return Status::Unavailable("no servers");
  q.entry = q.topo->alive[Draw(q.topo->alive.size())];
  return Status::Ok();
}

Result<LookupOutcome> Router::Lookup(const std::string& path, bool lease,
                                     Suspects* suspects, bool teach_l1) {
  // Held for the whole cascade: a drain cannot move files between the
  // levels of one lookup. Released before the caller fails suspects over.
  ReaderMutexLock gate(&gate_);
  QueryCtx q;
  if (Status s = StartQuery(q, suspects, lease, teach_l1); !s.ok()) return s;
  const Topology& topo = *q.topo;
  const MdsId entry = q.entry;

  // One round for L1, L2 and L3: the entry's kLookupLocal and a
  // kGroupProbe to each other member of its group go out in one scatter.
  // Every server answers for its own store; the entry adds its L1 hint and
  // L2 hits, each peer the candidates its replicas hit. A server that
  // cannot answer counts as no answer and the query continues: the levels
  // below are a superset of what it could have said.
  std::vector<MdsId> targets{entry};
  if (topo.grouped && entry < topo.group.size()) {
    for (const MdsId m : topo.group[entry]) {
      if (m == entry) continue;
      q.Contact(m);
      targets.push_back(m);
    }
  }
  const auto local_probe =
      EncodeProbeRequest(MsgType::kLookupLocal, path, lease);
  const auto group_probe =
      EncodeProbeRequest(MsgType::kGroupProbe, path, lease);
  std::vector<const std::vector<std::uint8_t>*> frames(targets.size(),
                                                       &group_probe);
  frames[0] = &local_probe;
  LocalLookupResp local;
  std::vector<MdsId> candidates;  // L2 and L3 hits, verified after the round
  // Peers holding the path, in group order, with the lease each recorded.
  std::vector<std::pair<MdsId, std::uint32_t>> holders;
  for (const Reply& r : Scatter(topo, targets, frames, suspects, &q.retries)) {
    auto reply = PayloadOf(r.resp, DecodeLocalLookupResp);
    if (!reply.ok()) {
      // A silent entry is not verified again; a silent peer may still be,
      // as a candidate.
      if (r.id == entry) q.asked.push_back(entry);
      continue;
    }
    q.NoteVerdict(r.id, reply->verdict);
    candidates.insert(candidates.end(), reply->hits.begin(),
                      reply->hits.end());
    if (r.id == entry) {
      local = std::move(*reply);
    } else if (reply->verdict == SelfVerdict::kHeld) {
      holders.emplace_back(r.id, reply->lease_ttl_ms);
    }
  }
  q.CloseLevel(1);
  if (local.verdict == SelfVerdict::kHeld) {
    q.lease_ttl_ms = local.lease_ttl_ms;
    const bool l1 = local.lru_unique && local.lru_home == entry;
    return FinishLookup(path, q, l1 ? 1 : 2, true, entry);
  }
  if (!holders.empty()) {
    // Report the level the entry-first walk would have: its L1 hint, then
    // a unique L2 hit, would have found this peer before L3 did.
    const auto held = [&holders](MdsId id) {
      return std::find_if(holders.begin(), holders.end(), [id](const auto& h) {
        return h.first == id;
      });
    };
    int level = 3;
    auto home = holders.begin();
    if (local.lru_unique && held(local.lru_home) != holders.end()) {
      level = 1;
      home = held(local.lru_home);
    } else if (local.hits.size() == 1 &&
               held(local.hits.front()) != holders.end()) {
      level = 2;
      home = held(local.hits.front());
    }
    q.lease_ttl_ms = home->second;
    return FinishLookup(path, q, level, true, home->first);
  }

  // No server in the round holds it: verify the entry's L1 hint, then a
  // unique L2 hit, then the L3 candidates, skipping every server that
  // already answered.
  if (local.lru_unique && TryVerifyOnce(q, local.lru_home, path)) {
    return FinishLookup(path, q, 1, true, local.lru_home);
  }
  q.CloseLevel(1);
  if (local.hits.size() == 1 && TryVerifyOnce(q, local.hits.front(), path)) {
    return FinishLookup(path, q, 2, true, local.hits.front());
  }
  q.CloseLevel(2);
  if (topo.grouped) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const MdsId c : candidates) {
      if (TryVerifyOnce(q, c, path)) {
        return FinishLookup(path, q, 3, true, c);
      }
    }
    q.CloseLevel(3);
  }
  return GlobalLevel(path, q);
}

ExactPrepare Router::PrepareExact(const std::string& path, MdsId participant,
                                  const std::vector<std::uint8_t>& prepare,
                                  Suspects* suspects) {
  ReaderMutexLock gate(&gate_);
  ExactPrepare out;
  QueryCtx q;
  // The entry is drawn only so the outcome report has a server to go to.
  if (Status s = StartQuery(q, suspects, /*lease=*/false,
                            /*teach_l1=*/false);
      !s.ok()) {
    out.vote = s;
    return out;
  }
  const Topology& topo = *q.topo;
  std::vector<MdsId> targets = topo.alive;
  if (!Has(targets, participant)) targets.push_back(participant);
  const auto probe = EncodePathRequest(MsgType::kGlobalProbe, path);
  std::vector<const std::vector<std::uint8_t>*> frames(targets.size(),
                                                       &probe);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == participant) frames[i] = &prepare;
    q.Contact(targets[i]);
  }
  // As at L4, a server that could not answer leaves the verdict
  // uncertain: no outcome unless someone holds the path.
  bool all_answered = true;
  for (Reply& r : Scatter(topo, targets, frames, suspects, &q.retries)) {
    std::optional<bool> held;
    if (r.id == participant) {
      held = VoteHolds(r.resp);
      out.vote = std::move(r.resp);
    } else if (const auto found = PayloadOf(r.resp, DecodeBoolResp);
               found.ok()) {
      held = *found;
    }
    if (!held.has_value()) {
      all_answered = false;
    } else if (*held) {
      out.holder = std::min(out.holder, r.id);
    }
  }
  if (out.holder != kInvalidMds) {
    (void)FinishLookup(path, q, 4, true, out.holder);
  } else if (all_answered) {
    (void)FinishLookup(path, q, 4, false, kInvalidMds);
  }
  return out;
}

Result<LookupOutcome> Router::GlobalLevel(const std::string& path,
                                          QueryCtx& q) {
  // One multicast to every live server that has not already answered "not
  // here"; the lowest id that holds the path answers. L4 is the exact
  // level, so a peer we could not reach leaves the verdict uncertain:
  // report Unavailable rather than a confident (and possibly wrong) "not
  // found".
  const Topology& topo = *q.topo;
  std::vector<MdsId> targets;
  for (const MdsId m : topo.alive) {
    if (Has(q.absent, m)) continue;
    q.Contact(m);
    targets.push_back(m);
  }
  bool all_peers_answered = true;
  for (const Reply& r :
       FanOut(topo, targets, EncodePathRequest(MsgType::kGlobalProbe, path),
              q.suspects, &q.retries)) {
    const auto found = PayloadOf(r.resp, DecodeBoolResp);
    if (!found.ok()) {
      all_peers_answered = false;
      continue;
    }
    if (!*found) continue;
    if (q.lease) {
      // The global probe carries no lease flag: one kLeaseGrant to the home.
      const auto grant = PayloadOf(
          Call(r.id, topo.PortOf(r.id),
               EncodePathRequest(MsgType::kLeaseGrant, path), q.suspects,
               &q.retries),
          DecodeLeaseGrantResp);
      if (grant.ok() && grant->held) q.lease_ttl_ms = grant->ttl_ms;
    }
    return FinishLookup(path, q, 4, true, r.id);
  }
  if (!all_peers_answered) {
    return Status::Unavailable(
        "lookup degraded: some peers unreachable at L4");
  }
  return FinishLookup(path, q, 4, false, kInvalidMds);
}

bool Router::TryVerifyOnce(QueryCtx& q, MdsId candidate,
                           const std::string& path) {
  if (Has(q.absent, candidate)) {
    // It already said "not here": a candidate naming it is a false route.
    q.trace.false_route = true;
    return false;
  }
  if (Has(q.asked, candidate)) return false;
  q.asked.push_back(candidate);
  q.Contact(candidate);
  // Stale cache/replica named a dead/slow server, the server shed us, or
  // the answer came back mangled: degraded service means the query
  // continues down the hierarchy, not that it fails (Sec. 4.5). The exact
  // L4 pass backstops any candidate skipped here. A lookup that wants a
  // lease verifies with kLeaseGrant, whose reply is the verdict and the
  // lease in one round trip.
  const std::uint16_t port = q.topo->PortOf(candidate);
  bool held = false;
  if (q.lease) {
    const auto grant = PayloadOf(
        Call(candidate, port, EncodePathRequest(MsgType::kLeaseGrant, path),
             q.suspects, &q.retries),
        DecodeLeaseGrantResp);
    if (!grant.ok()) return false;
    held = grant->held;
    if (held) q.lease_ttl_ms = grant->ttl_ms;
  } else {
    const auto v = PayloadOf(
        Call(candidate, port, EncodePathRequest(MsgType::kVerify, path),
             q.suspects, &q.retries),
        DecodeBoolResp);
    if (!v.ok()) return false;
    held = *v;
  }
  if (!held) {
    q.absent.push_back(candidate);
    q.trace.false_route = true;  // confident wrong route
  }
  return held;
}

LookupOutcome Router::FinishLookup(const std::string& path, QueryCtx& q,
                                   int level, bool found, MdsId home) {
  q.CloseLevel(level);
  LookupOutcome result;
  result.found = found;
  result.home = home;
  result.served_level = level;
  result.latency_ms = NowMs() - q.start_ms;
  result.lease_ttl_ms = q.lease_ttl_ms;
  q.trace.level = static_cast<std::uint8_t>(level);
  q.trace.peers_contacted = static_cast<std::uint32_t>(q.contacted.size());
  q.trace.retries = q.retries;
  result.trace = q.trace;

  // Client-side accounting (the entry server gets the same numbers via
  // kReportOutcome below, so server snapshots can reconstruct Fig. 13).
  const bool miss = level == 4 && !found;
  switch (level) {
    case 1:
      ++metrics_->levels.l1;
      metrics_->l1_latency_ms.Add(result.latency_ms);
      break;
    case 2:
      ++metrics_->levels.l2;
      metrics_->l2_latency_ms.Add(result.latency_ms);
      break;
    case 3:
      ++metrics_->levels.l3;
      metrics_->group_latency_ms.Add(result.latency_ms);
      break;
    default:
      if (miss) {
        ++metrics_->levels.miss;
      } else {
        ++metrics_->levels.l4;
      }
      metrics_->global_latency_ms.Add(result.latency_ms);
      break;
  }
  metrics_->lookup_latency_ms.Add(result.latency_ms);
  if (q.trace.false_route) ++metrics_->false_routes;

  OutcomeReport report;
  report.level = q.trace.level;
  report.found = found;
  report.false_route = q.trace.false_route;
  report.elapsed_ns = q.trace.TotalElapsedNs();
  report.peers_contacted = q.trace.peers_contacted;
  report.retries = q.trace.retries;
  const std::uint16_t entry_port = q.topo->PortOf(q.entry);
  // Telemetry one-ways: losing one only skews per-level hit counters.
  (void)OneWay(entry_port, EncodeOutcomeReport(report));
  if (found && q.teach_l1) {
    // L1 hint, advisory: a lost touch only costs a later L1 miss.
    (void)OneWay(entry_port, EncodeTouch(path, home));
  }
  return result;
}

Result<bool> Router::Verify(MdsId id, const std::string& path,
                            Suspects* suspects) {
  const auto topo = Snapshot();
  return PayloadOf(Call(id, topo->PortOf(id),
                        EncodePathRequest(MsgType::kVerify, path), suspects),
                   DecodeBoolResp);
}

Result<LeaseGrantResp> Router::RequestLease(MdsId home,
                                            const std::string& path,
                                            Suspects* suspects) {
  const auto topo = Snapshot();
  return PayloadOf(Call(home, topo->PortOf(home),
                        EncodePathRequest(MsgType::kLeaseGrant, path),
                        suspects),
                   DecodeLeaseGrantResp);
}

}  // namespace ghba

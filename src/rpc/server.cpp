#include "rpc/server.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "bloom/compressed.hpp"
#include "common/logging.hpp"
#include "core/metrics.hpp"
#include "hash/fnv.hpp"
#include "hash/query_digest.hpp"
#include "rpc/wire_buffer.hpp"

namespace ghba {

namespace {

LruBloomArray::Options ShardLruOptionsFor(const ClusterConfig& config,
                                          std::uint32_t num_shards) {
  LruBloomArray::Options options;
  // The configured capacity is the whole server's; every shard gets an
  // equal slice so total L1 footprint stays what the config asked for.
  options.capacity =
      std::max<std::size_t>(1, config.lru_capacity / std::max(1u, num_shards));
  options.counters_per_item = 8.0;
  options.seed = 0x1111 ^ config.seed;
  return options;
}

std::uint16_t PeekType(const std::vector<std::uint8_t>& frame) {
  if (frame.size() < 2) return 0;
  return static_cast<std::uint16_t>(frame[0]) |
         (static_cast<std::uint16_t>(frame[1]) << 8);
}

/// The memory-only requests the event thread may answer inline on an idle
/// shard (MdsServer::HandleProbe). Everything else — mutations, txn
/// messages, kInvalidate, whole-server and control messages, kBatch — is
/// always queued to a worker.
bool IsInlineProbe(std::uint16_t type) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kLookupLocal:
    case MsgType::kGroupProbe:
    case MsgType::kGlobalProbe:
    case MsgType::kVerify:
    case MsgType::kLeaseGrant:
    case MsgType::kTouchLru:
    case MsgType::kReportOutcome:
      return true;
    default:
      return false;
  }
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t ShardOfPath(std::string_view path, std::uint32_t num_shards) {
  if (num_shards <= 1) return 0;
  return static_cast<std::uint32_t>(Fnv1a64(path) % num_shards);
}

IoErrorAction ClassifyWaitError(int errnum) {
  switch (errnum) {
    case EINTR:   // a signal interrupted the wait: benign, wait again
    case EAGAIN:  // spurious wakeup on some kernels: benign
      return IoErrorAction::kRetry;
    default:
      // EBADF, EINVAL, ENOMEM, EFAULT, ...: the loop's own machinery is
      // broken. Retrying would spin forever while serving nobody — the
      // silent-busy-loop failure mode this classification exists to kill.
      return IoErrorAction::kFatal;
  }
}

MdsServer::MdsServer(MdsId id, const ClusterConfig& config)
    : id_(id),
      config_(config),
      local_filter_(CountingBloomFilter::ForCapacity(
          config.expected_files_per_mds, config.bits_per_file,
          config.seed ^ 0x5151)),
      outcome_l1_(registry_.counter(metrics_names::kLookupsL1)),
      outcome_l2_(registry_.counter(metrics_names::kLookupsL2)),
      outcome_l3_(registry_.counter(metrics_names::kLookupsL3)),
      outcome_l4_(registry_.counter(metrics_names::kLookupsL4)),
      outcome_miss_(registry_.counter(metrics_names::kLookupsMiss)),
      outcome_false_routes_(registry_.counter(metrics_names::kFalseRoutes)),
      serve_local_lookups_(
          registry_.counter(metrics_names::kServeLocalLookups)),
      serve_group_probes_(registry_.counter(metrics_names::kServeGroupProbes)),
      serve_global_probes_(
          registry_.counter(metrics_names::kServeGlobalProbes)),
      serve_verifies_(registry_.counter(metrics_names::kServeVerifies)),
      serve_lease_requests_(
          registry_.counter(metrics_names::kServeLeaseRequests)),
      serve_lease_grants_(
          registry_.counter(metrics_names::kServeLeaseGrants)),
      serve_lease_refusals_(
          registry_.counter(metrics_names::kServeLeaseRefusals)),
      serve_invalidations_(
          registry_.counter(metrics_names::kServeInvalidations)),
      serve_lease_sweeps_(registry_.counter(metrics_names::kServeLeaseSweeps)),
      serve_leases_expired_(
          registry_.counter(metrics_names::kServeLeasesExpired)),
      serve_hot_keys_(registry_.counter(metrics_names::kServeHotKeys)),
      serve_shed_requests_(
          registry_.counter(metrics_names::kServeShedRequests)),
      serve_inline_requests_(
          registry_.counter(metrics_names::kServeInlineRequests)),
      serve_txn_begins_(registry_.counter(metrics_names::kServeTxnBegins)),
      serve_txn_prepares_(
          registry_.counter(metrics_names::kServeTxnPrepares)),
      serve_txn_commits_(registry_.counter(metrics_names::kServeTxnCommits)),
      serve_txn_aborts_(registry_.counter(metrics_names::kServeTxnAborts)),
      serve_txn_resolves_(
          registry_.counter(metrics_names::kServeTxnResolves)),
      reconfig_messages_(
          registry_.counter(metrics_names::kMessagesReconfig)),
      outcome_latency_ms_(
          registry_.histogram(metrics_names::kLatencyLookupMs)) {
  const std::uint32_t n = std::max(1u, config.rpc.server_shards);
  const auto lru_options = ShardLruOptionsFor(config, n);
  shards_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        lru_options, config.hotspot, config.seed ^ (0x9090ULL + i)));
    shards_.back()->index = i;
  }
}

MdsServer::~MdsServer() { Stop(); }

std::string MdsServer::last_error() const {
  MutexLock lock(&err_mu_);
  return last_error_;
}

Status MdsServer::Start(std::uint16_t port) {
  auto listener = TcpListener::Bind(port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  // The event thread accepts only when epoll reports the listener ready,
  // but a client that resets in between would leave a blocking accept(2)
  // waiting for the next one: non-blocking, that race yields EAGAIN.
  SetNonBlocking(listener_.fd());

  epoll_fd_ = FdHandle(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) return Status::Internal("epoll_create1 failed");
  event_fd_ = FdHandle(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!event_fd_.valid()) return Status::Internal("eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // listener
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    return Status::Internal("epoll_ctl(listener) failed");
  }
  ev.data.u64 = 1;  // completion wakeup
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, event_fd_.get(), &ev) != 0) {
    return Status::Internal("epoll_ctl(eventfd) failed");
  }

  // Reset cross-run state so a stopped server can be started again.
  {
    MutexLock lock(&out_mu_);
    outbox_.clear();
  }
  {
    MutexLock lock(&maint_mu_);
    maint_queue_.clear();
    checkpoint_pending_ = false;
  }
  {
    MutexLock lock(&err_mu_);
    last_error_.clear();
  }
  txn_.Seed({}, {}, {});
  sabotage_errno_.store(0, std::memory_order_release);

  std::vector<std::pair<std::string, FileMetadata>> recovered_records;
  if (!config_.storage.data_dir.empty()) {
    StorageOptions options = config_.storage;
    options.data_dir += "/mds-" + std::to_string(id_);
    auto engine = StorageEngine::Open(
        options,
        CountingBloomFilter::ForCapacity(config_.expected_files_per_mds,
                                         config_.bits_per_file,
                                         config_.seed ^ 0x5151),
        &registry_);
    if (!engine.ok()) return engine.status();
    RecoveredState recovered;
    {
      MutexLock wal(&wal_mu_);
      engine_ = std::move(*engine);
      recovered = engine_->TakeRecovered();
    }
    {
      MutexLock filter(&filter_mu_);
      local_filter_ = std::move(recovered.filter);
    }
    {
      MutexLock seg(&seg_mu_);
      for (auto& [owner, filter] : recovered.replicas) {
        // Recovery already deduplicated owners; AlreadyExists cannot fire.
        (void)segment_.AddEntry(owner, std::move(filter));
      }
    }
    // Re-take the intent lock of every in-doubt prepare and restore the
    // decision table; the paths stay fenced against plain mutations until
    // resolution (driver-side ResolveInDoubt) closes them.
    txn_.Seed(std::move(recovered.txn_pending),
              std::move(recovered.txn_decisions), recovered.txn_closed);
    recovered_records = recovered.store.ExtractAll();
  }

  // Partition recovered records across the shards that will serve them.
  // Adopting each shard's role here is sound: its worker does not exist yet.
  for (auto& shard : shards_) {
    ThreadRoleGuard role(&shard->role);
    for (auto& [path, md] : recovered_records) {
      if (ShardOfPath(path, shards()) != shard->index) continue;
      // Recovery yields unique paths into an empty store: cannot collide.
      (void)shard->store.Insert(path, std::move(md));
    }
    shard->files.store(shard->store.size(), std::memory_order_relaxed);
    shard->lru_bytes.store(shard->lru.MemoryBytes(), std::memory_order_relaxed);
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { IoLoop(); });
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { WorkerLoop(s); });
  }
  maint_thread_ = std::thread([this] { MaintenanceLoop(); });
  return Status::Ok();
}

void MdsServer::RequestStop() {
  stop_.store(true, std::memory_order_release);
  if (event_fd_.valid()) {
    const std::uint64_t one = 1;
    (void)!::write(event_fd_.get(), &one, sizeof one);
  }
  for (auto& shard : shards_) {
    shard->mu.Lock();
    shard->cv.notify_all();
    shard->mu.Unlock();
  }
  maint_mu_.Lock();
  maint_cv_.notify_all();
  maint_mu_.Unlock();
}

void MdsServer::Stop() {
  RequestStop();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (maint_thread_.joinable()) maint_thread_.join();
  running_.store(false, std::memory_order_release);
  listener_.Close();
  epoll_fd_.Close();
  event_fd_.Close();
}

void MdsServer::FailEventLoop(const char* what, int errnum) {
  {
    MutexLock lock(&err_mu_);
    last_error_ = std::string(what) + " failed: " +
                  std::strerror(errnum) + " (errno " +
                  std::to_string(errnum) + ")";
  }
  GHBA_LOG(kError) << "mds " << id_ << " event loop: " << what
                   << " failed with errno " << errnum << " ("
                   << std::strerror(errnum)
                   << "); stopping the server instead of spinning";
  RequestStop();
}

std::uint32_t MdsServer::RouteShard(
    const std::vector<std::uint8_t>& frame) const {
  if (shards_.size() <= 1) return 0;
  ByteReader in(frame);
  auto type = in.GetU16();
  if (!type.ok()) return 0;
  switch (static_cast<MsgType>(*type)) {
    case MsgType::kLookupLocal:
    case MsgType::kGroupProbe:
    case MsgType::kGlobalProbe:
    case MsgType::kVerify:
    case MsgType::kTouchLru:
    case MsgType::kInsert:
    case MsgType::kUnlink:
    case MsgType::kLeaseGrant:
    case MsgType::kInvalidate:
    // Per-path txn messages route like the mutations they stage, so a
    // prepare and the plain ops it fences always share one shard worker.
    case MsgType::kTxnPrepare:
    case MsgType::kTxnCommit:
    case MsgType::kTxnAbort: {
      auto path = in.GetString();
      if (!path.ok()) return 0;
      return ShardOfPath(*path, shards());
    }
    default:
      // Whole-server messages (filters, replicas, stats, control) and
      // malformed frames all run on shard 0.
      return 0;
  }
}

void MdsServer::PostTask(std::uint32_t shard_index, Task task) {
  Shard& shard = *shards_[shard_index];
  shard.mu.Lock();
  PostTaskLocked(shard, std::move(task));
  shard.mu.Unlock();
}

void MdsServer::PostTaskLocked(Shard& shard, Task task) {
  shard.queue.push_back(std::move(task));
  shard.queue_len.store(shard.queue.size(), std::memory_order_relaxed);
  shard.cv.notify_one();
}

bool MdsServer::DispatchToShard(std::uint32_t shard_index, Task task,
                                Completion& done) {
  Shard& shard = *shards_[shard_index];
  const std::uint16_t type = PeekType(task.frame);
  // Spilled replicas make a probe block (PaySpilledProbeDelay): that server
  // answers on its workers only. Read before shard.mu, which ranks below
  // seg_mu_.
  const bool eligible =
      IsInlineProbe(type) && ReplicaOverflowFraction() == 0.0;
  shard.mu.Lock();
  // Idle means nothing queued and nobody running: an earlier request for
  // this shard — a same-path insert, say — has finished, so running this
  // one now keeps same-path FIFO, and with queue_len == 0 it never sheds.
  const bool claimed =
      eligible && shard.queue.empty() && !shard.busy &&
      !shard.park_requested && !shard.parked &&
      !(injector_ != nullptr && injector_->IsShardStalled(id_, shard.index));
  if (!claimed) {
    PostTaskLocked(shard, std::move(task));
    shard.mu.Unlock();
    return false;
  }
  shard.busy = true;
  shard.mu.Unlock();
  {
    // The claim makes this thread the shard's only user until the release
    // below, so adopting its role here is sound.
    ThreadRoleGuard role(&shard.role);
    ByteReader in(task.frame);
    // IsInlineProbe accepted the tag; skip it.
    (void)in.GetU16();
    done.payload =
        HandleProbe(static_cast<MsgType>(type), in, shard, done.respond);
  }
  ReleaseClaim(shard);
  ++serve_inline_requests_;
  return true;
}

void MdsServer::ReleaseClaim(Shard& shard) {
  shard.mu.Lock();
  shard.busy = false;
  if (shard.claim_waiter) {
    shard.claim_waiter = false;
    shard.cv.notify_all();
  }
  shard.mu.Unlock();
}

void MdsServer::PostCompletion(Completion completion) {
  {
    MutexLock lock(&out_mu_);
    outbox_.push_back(std::move(completion));
  }
  const std::uint64_t one = 1;
  (void)!::write(event_fd_.get(), &one, sizeof one);
}

// ---------------------------------------------------------------------------
// Event thread
// ---------------------------------------------------------------------------

void MdsServer::IoLoop() {
  ThreadRoleGuard io(&io_role_);
  using Clock = std::chrono::steady_clock;

  struct PendingResp {
    bool ready = false;
    bool respond = false;
    bool planned = false;
    bool is_batch = false;
    std::size_t remaining = 0;
    std::vector<std::vector<std::uint8_t>> slots;
    std::vector<std::uint8_t> payload;
    FaultInjector::FramePlan plan;
  };
  struct Conn {
    TcpConnection conn;
    FrameAssembler in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    std::uint64_t next_seq = 0;   // next request slot to assign
    std::uint64_t flush_seq = 0;  // next slot to flush (responses in order)
    std::map<std::uint64_t, PendingResp> pending;
    Clock::time_point delay_until{};
    bool delayed = false;  // an injected delay is holding up flush_seq
    bool want_write = false;
  };

  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 2;  // 0 = listener, 1 = eventfd
  std::vector<std::uint8_t> chunk(64 * 1024);
  std::vector<std::uint8_t> frame;  // payload buffer reused across frames
  std::vector<std::uint64_t> to_close;
  std::vector<std::uint64_t> touched;
  std::vector<Completion> completions;
  epoll_event events[64];
  const int epfd = epoll_fd_.get();

  auto update_interest = [&](std::uint64_t cid, Conn& c) {
    epoll_event ev{};
    ev.events = EPOLLIN | (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = cid;
    (void)::epoll_ctl(epfd, EPOLL_CTL_MOD, c.conn.fd(), &ev);
  };

  // Push buffered bytes to the socket without blocking; false = conn broken.
  auto kick_write = [&](std::uint64_t cid, Conn& c) -> bool {
    while (c.out_off < c.out.size()) {
      const ssize_t n =
          ::send(c.conn.fd(), c.out.data() + c.out_off, c.out.size() - c.out_off,
                 MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c.want_write) {
          c.want_write = true;
          update_interest(cid, c);
        }
        return true;
      }
      return false;
    }
    c.out.clear();
    c.out_off = 0;
    if (c.want_write) {
      c.want_write = false;
      update_interest(cid, c);
    }
    return true;
  };

  // Move ready responses (in request order) into the write buffer, drawing
  // each wire frame's fault plan exactly where the old SendFrame did —
  // except injected delays defer the flush instead of blocking the thread.
  auto try_flush = [&](std::uint64_t cid, Conn& c) -> bool {
    const auto now = Clock::now();
    while (true) {
      auto it = c.pending.find(c.flush_seq);
      if (it == c.pending.end() || !it->second.ready) break;
      PendingResp& p = it->second;
      if (!p.respond) {
        c.pending.erase(it);
        ++c.flush_seq;
        continue;
      }
      if (!p.planned) {
        p.plan = injector_ != nullptr ? injector_->PlanFrame()
                                      : FaultInjector::FramePlan{};
        p.planned = true;
        if (p.plan.delay.count() > 0) {
          c.delayed = true;
          c.delay_until = now + p.plan.delay;
        }
      }
      if (c.delayed) {
        if (now < c.delay_until) return true;  // resumed once the delay is up
        c.delayed = false;
      }
      // A false return means the injector dropped the frame on purpose.
      (void)BuildWireFrame(p.plan, p.payload, c.out);
      // Dropped frames count as sent, mirroring SendFrame's accounting.
      frames_out_.fetch_add(1, std::memory_order_relaxed);
      c.pending.erase(it);
      ++c.flush_seq;
    }
    return kick_write(cid, c);
  };

  // Hand one complete request frame to its executor. Every frame — one-way
  // or not — claims the next response slot so responses stay in order.
  auto dispatch_frame = [&](std::uint64_t cid, Conn& c,
                            std::vector<std::uint8_t> f) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = c.next_seq++;
    const std::uint16_t raw_type = PeekType(f);
    if (raw_type == static_cast<std::uint16_t>(MsgType::kBatch)) {
      ByteReader in(f);
      (void)in.GetU16();  // skip the type tag PeekType already validated
      auto subs = DecodeBatchRequest(in);
      if (subs.ok()) {
        PendingResp& p = c.pending[seq];
        p.is_batch = true;
        p.remaining = subs->size();
        p.slots.resize(subs->size());
        for (std::size_t i = 0; i < subs->size(); ++i) {
          Task task;
          task.conn_id = cid;
          task.seq = seq;
          task.slot = static_cast<std::int32_t>(i);
          task.frame = std::move((*subs)[i]);
          // Route before the move: the by-value Task parameter may be
          // constructed before RouteShard runs (evaluation order is
          // unspecified), which would hash a moved-from frame.
          const std::uint32_t target = RouteShard(task.frame);
          PostTask(target, std::move(task));
        }
        return;
      }
      // Undecodable batch: fall through; shard 0 re-decodes and answers
      // with the error so the reject still flows through the ordered path.
    }
    c.pending[seq];  // claim the slot
    Task task;
    task.conn_id = cid;
    task.seq = seq;
    task.frame = std::move(f);
    if (raw_type == static_cast<std::uint16_t>(MsgType::kExportFiles)) {
      // Whole-server drain: only the maintenance thread may park every
      // shard for a consistent cut.
      maint_mu_.Lock();
      maint_queue_.push_back(std::move(task));
      maint_cv_.notify_all();
      maint_mu_.Unlock();
      return;
    }
    const std::uint32_t target = RouteShard(task.frame);
    Completion done;
    if (DispatchToShard(target, std::move(task), done)) {
      // Answered inline: the reply goes straight into its slot, and the
      // ordered flush still holds it behind any earlier unfinished slot.
      PendingResp& p = c.pending[seq];
      p.respond = done.respond;
      p.payload = std::move(done.payload);
      p.ready = true;
    }
  };

  auto close_conn = [&](std::uint64_t cid) {
    auto it = conns.find(cid);
    if (it == conns.end()) return;
    (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, it->second.conn.fd(), nullptr);
    conns.erase(it);
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // Wake up early if an injected delay comes due before the 200ms slice.
    int timeout_ms = 200;
    if (std::any_of(conns.begin(), conns.end(),
                    [](const auto& kv) { return kv.second.delayed; })) {
      const auto now = Clock::now();
      for (const auto& [cid, c] : conns) {
        if (!c.delayed) continue;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              c.delay_until - now)
                              .count();
        timeout_ms = std::clamp<int>(static_cast<int>(left) + 1, 0, timeout_ms);
      }
    }

    int n;
    int wait_errno;
    const int sabotage = sabotage_errno_.exchange(0, std::memory_order_acq_rel);
    if (sabotage != 0) {
      n = -1;
      wait_errno = sabotage;
    } else {
      n = ::epoll_wait(epfd, events, 64, timeout_ms);
      wait_errno = errno;
    }
    if (n < 0) {
      if (ClassifyWaitError(wait_errno) == IoErrorAction::kRetry) continue;
      FailEventLoop("epoll_wait", wait_errno);
      break;
    }

    to_close.clear();
    touched.clear();

    for (int i = 0; i < n; ++i) {
      const std::uint64_t cid = events[i].data.u64;
      if (cid == 0) {
        // Level-triggered: accept one per wakeup; more connections re-arm.
        auto conn = listener_.Accept();
        if (!conn.ok()) continue;
        SetNonBlocking(conn->fd());
        const std::uint64_t id = next_conn_id++;
        Conn& c = conns[id];
        c.conn = std::move(*conn);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = id;
        if (::epoll_ctl(epfd, EPOLL_CTL_ADD, c.conn.fd(), &ev) != 0) {
          conns.erase(id);
        }
        continue;
      }
      if (cid == 1) {
        std::uint64_t drained;
        while (::read(event_fd_.get(), &drained, sizeof drained) > 0) {
        }
        continue;
      }
      auto it = conns.find(cid);
      if (it == conns.end()) continue;
      Conn& c = it->second;
      bool dead = false;
      if (events[i].events & EPOLLOUT) {
        if (!kick_write(cid, c)) dead = true;
      }
      if (!dead && (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        // Drain the socket, then drain *every* buffered frame: one wakeup
        // services the connection's whole pipeline, instead of one frame
        // per poll round.
        while (true) {
          const ssize_t got =
              ::recv(c.conn.fd(), chunk.data(), chunk.size(), MSG_DONTWAIT);
          if (got > 0) {
            c.in.Append(chunk.data(), static_cast<std::size_t>(got));
            if (static_cast<std::size_t>(got) < chunk.size()) break;
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          dead = true;  // orderly close or hard error
          break;
        }
        while (!dead) {
          const auto next = c.in.Pop(frame);
          if (next == FrameAssembler::Next::kNeedMore) break;
          if (next == FrameAssembler::Next::kCorrupt) {
            dead = true;
            break;
          }
          dispatch_frame(cid, c, std::move(frame));
          frame = {};
        }
      }
      if (dead) {
        to_close.push_back(cid);
      } else {
        touched.push_back(cid);
      }
    }

    // Finished requests: fill their response slots, assemble batches.
    completions.clear();
    {
      MutexLock lock(&out_mu_);
      completions.swap(outbox_);
    }
    for (auto& comp : completions) {
      auto it = conns.find(comp.conn_id);
      if (it == conns.end()) continue;  // connection died first
      Conn& c = it->second;
      auto pit = c.pending.find(comp.seq);
      if (pit == c.pending.end()) continue;
      PendingResp& p = pit->second;
      if (comp.slot >= 0 && p.is_batch) {
        const auto slot = static_cast<std::size_t>(comp.slot);
        if (slot >= p.slots.size() || p.remaining == 0) continue;
        p.slots[slot] = std::move(comp.payload);
        if (--p.remaining == 0) {
          p.payload = EncodeBatchResp(p.slots);
          p.slots.clear();
          p.slots.shrink_to_fit();
          p.respond = true;
          p.ready = true;
        }
      } else {
        p.respond = comp.respond;
        p.payload = std::move(comp.payload);
        p.ready = true;
      }
      touched.push_back(comp.conn_id);
    }

    // Flush every connection something happened on, plus any whose
    // injected delay has elapsed.
    const auto now = Clock::now();
    for (auto& [cid, c] : conns) {
      if (c.delayed && now >= c.delay_until) touched.push_back(cid);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::uint64_t cid : touched) {
      auto it = conns.find(cid);
      if (it == conns.end()) continue;
      if (!try_flush(cid, it->second)) to_close.push_back(cid);
    }
    for (const std::uint64_t cid : to_close) close_conn(cid);
  }

  running_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Worker shards
// ---------------------------------------------------------------------------

void MdsServer::WorkerLoop(Shard* shard) {
  ThreadRoleGuard role(&shard->role);
  while (true) {
    Task task;
    bool have = false;
    shard->mu.Lock();
    while (!stop_.load(std::memory_order_acquire)) {
      // An injected stall wedges this worker without closing sockets —
      // the event thread keeps accepting and buffering, but nothing
      // queued to this shard is served until the stall lifts.
      const bool stalled =
          injector_ != nullptr && injector_->IsShardStalled(id_, shard->index);
      if (stalled) {
        shard->cv.wait_for(shard->mu, std::chrono::milliseconds(1));
        continue;
      }
      if (shard->busy) {
        // The event thread is answering a probe on this shard inline. Wait
        // for its release (which wakes us because we flagged it): parking
        // or popping now would overlap that request.
        shard->claim_waiter = true;
        shard->cv.wait(shard->mu);
        continue;
      }
      if (shard->park_requested) {
        shard->parked = true;
        shard->cv.notify_all();
        while (shard->park_requested &&
               !stop_.load(std::memory_order_acquire)) {
          shard->cv.wait(shard->mu);
        }
        shard->parked = false;
        shard->cv.notify_all();
        continue;
      }
      if (!shard->queue.empty()) {
        task = std::move(shard->queue.front());
        shard->queue.pop_front();
        shard->queue_len.store(shard->queue.size(),
                               std::memory_order_relaxed);
        shard->busy = true;
        have = true;
        break;
      }
      shard->cv.wait_for(shard->mu, std::chrono::milliseconds(100));
    }
    shard->mu.Unlock();
    if (!have) break;  // only reachable via stop_

    if (task.conn_id == 0) {
      // Internal cross-shard op: purge a dropped home from this L1.
      shard->lru.DropHome(task.drop_home);
      shard->lru_bytes.store(shard->lru.MemoryBytes(),
                             std::memory_order_relaxed);
      ReleaseClaim(*shard);
      continue;
    }

    const std::uint16_t type = PeekType(task.frame);
    if (type == static_cast<std::uint16_t>(MsgType::kLookupLocal) ||
        type == static_cast<std::uint16_t>(MsgType::kGroupProbe)) {
      PaySpilledProbeDelay();
    }
    bool respond = false;
    bool shutdown = false;
    Completion comp;
    comp.conn_id = task.conn_id;
    comp.seq = task.seq;
    comp.slot = task.slot;
    comp.payload = Handle(task.frame, *shard, respond, shutdown);
    comp.respond = respond;
    // Free the shard before the reply can reach the client, so the
    // client's next request finds it idle.
    ReleaseClaim(*shard);
    PostCompletion(std::move(comp));
    if (shutdown) RequestStop();
  }
}

// ---------------------------------------------------------------------------
// Maintenance thread: checkpoints and whole-server drains
// ---------------------------------------------------------------------------

void MdsServer::ParkAllShards() {
  for (auto& shard : shards_) {
    shard->mu.Lock();
    shard->park_requested = true;
    shard->cv.notify_all();
    shard->mu.Unlock();
  }
  for (auto& shard : shards_) {
    shard->mu.Lock();
    while (!shard->parked && !stop_.load(std::memory_order_acquire)) {
      shard->cv.wait_for(shard->mu, std::chrono::milliseconds(50));
    }
    shard->mu.Unlock();
  }
}

void MdsServer::ReleaseAllShards() {
  for (auto& shard : shards_) {
    shard->mu.Lock();
    shard->park_requested = false;
    shard->cv.notify_all();
    shard->mu.Unlock();
  }
}

void MdsServer::MaintenanceLoop() {
  while (true) {
    Task task;
    bool have_export = false;
    bool do_checkpoint = false;
    maint_mu_.Lock();
    while (!stop_.load(std::memory_order_acquire) && maint_queue_.empty() &&
           !checkpoint_pending_) {
      maint_cv_.wait_for(maint_mu_, std::chrono::milliseconds(100));
    }
    if (stop_.load(std::memory_order_acquire)) {
      maint_mu_.Unlock();
      break;
    }
    if (!maint_queue_.empty()) {
      task = std::move(maint_queue_.front());
      maint_queue_.pop_front();
      have_export = true;
    } else {
      do_checkpoint = checkpoint_pending_;
      checkpoint_pending_ = false;
    }
    maint_mu_.Unlock();

    if (!have_export && !do_checkpoint) continue;
    // Rendezvous: with every worker parked at its queue fence, the shards'
    // role-guarded state is quiescent and safe to read from this thread.
    // This thread is the *only* park initiator, so two fences can never
    // wait on each other.
    ParkAllShards();
    if (stop_.load(std::memory_order_acquire)) {
      ReleaseAllShards();
      break;
    }
    if (have_export) {
      RunExport(std::move(task));
    } else {
      RunCheckpoint();
    }
    ReleaseAllShards();
  }
}

void MdsServer::NoteCheckpointDue() {
  maint_mu_.Lock();
  checkpoint_pending_ = true;
  maint_cv_.notify_all();
  maint_mu_.Unlock();
}

void MdsServer::RunCheckpoint() {
  MutexLock wal(&wal_mu_);
  if (engine_ == nullptr || !engine_->CheckpointDue()) return;
  // One durable image per server: merge the parked shards' stores back
  // into the single-store checkpoint format (recovery re-partitions).
  MetadataStore merged;
  for (const auto& shard : shards_) {
    shard->store.ForEach(
        [&merged](const std::string& path, const FileMetadata& md) {
          // Shards partition the namespace: paths are globally unique.
          (void)merged.Insert(path, md);
        });
  }
  std::vector<std::pair<MdsId, BloomFilter>> replicas;
  {
    MutexLock seg(&seg_mu_);
    replicas.reserve(segment_.entries().size());
    for (const auto& entry : segment_.entries()) {
      replicas.emplace_back(entry.owner, entry.filter);
    }
  }
  Status s;
  {
    MutexLock filter(&filter_mu_);
    s = engine_->WriteCheckpoint(merged, local_filter_, std::move(replicas));
  }
  if (!s.ok()) {
    // Not fatal: the WAL keeps growing and the next due mutation retries.
    GHBA_LOG(kWarn) << "mds " << id_ << " checkpoint failed: " << s.message();
  }
}

void MdsServer::RunExport(Task task) {
  // Decommissioning drain: hand over every record and clear state.
  FileListResp resp;
  for (const auto& shard : shards_) {
    auto extracted = shard->store.ExtractAll();
    resp.files.insert(resp.files.end(),
                      std::make_move_iterator(extracted.begin()),
                      std::make_move_iterator(extracted.end()));
  }
  {
    MutexLock filter(&filter_mu_);
    local_filter_.Clear();
  }
  Status logged = Status::Ok();
  {
    MutexLock wal(&wal_mu_);
    if (engine_ != nullptr) logged = engine_->LogClear();
  }
  Completion comp;
  comp.conn_id = task.conn_id;
  comp.seq = task.seq;
  comp.slot = task.slot;
  comp.respond = true;
  if (!logged.ok()) {
    // Roll the drain back: the coordinator must not receive records a
    // restart of this server would still claim to own.
    MutexLock filter(&filter_mu_);
    for (auto& [path, md] : resp.files) {
      Shard& shard = *shards_[ShardOfPath(path, shards())];
      local_filter_.Add(path);
      // Undoing our own drain: the slot we just emptied cannot collide.
      (void)shard.store.Insert(path, std::move(md));
    }
    comp.payload = EncodeStatusResp(logged);
  } else {
    comp.payload = EncodeFileListResp(resp);
  }
  for (const auto& shard : shards_) {
    shard->files.store(shard->store.size(), std::memory_order_relaxed);
  }
  PostCompletion(std::move(comp));
  if (logged.ok()) NoteCheckpointDue();
}

// ---------------------------------------------------------------------------
// Request execution (worker threads)
// ---------------------------------------------------------------------------

// Heat is one unit per request that asks this server about a path its own
// filter says it may hold (AnswerForSelf): a leased lookup that ends on its
// home costs that home one unit, where a separate verify and lease request
// used to count two.
std::uint64_t MdsServer::NoteHotAccess(const std::string& path,
                                       Shard& shard) {
  // Bound the tracked stream so the estimates follow the recent workload:
  // once the period fills, halve everything. The period is generous
  // relative to the threshold so a genuinely hot key crosses it well
  // before the decay claws its counters back.
  const std::uint64_t period = std::max<std::uint64_t>(
      4096, 64ULL * config_.hotspot.hot_threshold);
  if (shard.hot_sketch.total() >= period) shard.hot_sketch.Decay();
  const std::uint64_t estimate = shard.hot_sketch.Add(path);
  // Exactly-at-threshold fires once per period per key (the sketch adds
  // one at a time), so this counts distinct hot promotions, not traffic.
  if (estimate == config_.hotspot.hot_threshold) ++serve_hot_keys_;
  return estimate;
}

bool MdsServer::OwnFilterMayContain(const std::string& path) const {
  MutexLock filter(&filter_mu_);
  return local_filter_.MayContain(path);
}

MdsServer::SelfAnswer MdsServer::AnswerForSelf(const std::string& path,
                                               bool may_hold, bool lease,
                                               Shard& shard) {
  SelfAnswer answer;
  if (!may_hold) return answer;
  const std::uint64_t heat = NoteHotAccess(path, shard);
  // Shed only the hot tail, and only while this shard is actually
  // drowning: cold paths and idle servers always get a real answer.
  if (config_.hotspot.shed_enabled &&
      heat >= config_.hotspot.hot_threshold &&
      shard.queue_len.load(std::memory_order_relaxed) >
          config_.hotspot.shed_queue_depth) {
    ++serve_shed_requests_;
    answer.verdict = SelfVerdict::kShed;
    return answer;
  }
  if (!shard.store.Contains(path)) return answer;
  answer.verdict = SelfVerdict::kHeld;
  // A lease is a positive membership proof, so it is recorded only for a
  // path this server stores right now; the client combines the TTL with
  // its routing-epoch check for coherence.
  const std::uint32_t ttl = config_.hotspot.lease_ttl_ms;
  if (!lease || ttl == 0) return answer;
  answer.lease_ttl_ms = ttl;
  shard.leases[path] = SteadyNowMs() + ttl;
  ++serve_lease_grants_;
  // Prune so an ever-changing hot set cannot grow the table without bound
  // (the map is shard-local and small, so a linear sweep every 256 grants
  // is cheap). Counting grants, not the map size, keeps renewals of a
  // steady set from sweeping on every call.
  if (++shard.lease_grants % 256 == 0) {
    const std::uint64_t now = SteadyNowMs();
    ++serve_lease_sweeps_;
    serve_leases_expired_ += std::erase_if(
        shard.leases, [now](const auto& kv) { return kv.second <= now; });
  }
  return answer;
}

LocalLookupResp MdsServer::RunLocalLookup(const std::string& path,
                                          bool include_lru, bool lease,
                                          Shard& shard) {
  LocalLookupResp resp;
  // Digest-once, as in the simulator: the LRU probe, the segment-array
  // probe and the local-filter screen all reuse one digest per seed.
  QueryDigest digest(path);
  if (include_lru) {
    const auto l1 = shard.lru.Query(digest);
    if (l1.unique()) {
      resp.lru_unique = true;
      resp.lru_home = l1.owner;
    }
  }
  {
    MutexLock seg(&seg_mu_);
    segment_.QuerySharedInto(digest, resp.hits);
  }
  bool may_hold;
  {
    MutexLock filter(&filter_mu_);
    may_hold = local_filter_.MayContain(digest.For(local_filter_.seed()));
  }
  if (may_hold) resp.hits.push_back(id_);
  const SelfAnswer self = AnswerForSelf(path, may_hold, lease, shard);
  resp.verdict = self.verdict;
  resp.lease_ttl_ms = self.lease_ttl_ms;
  return resp;
}

void MdsServer::PaySpilledProbeDelay() const {
  // Only this shard's worker blocks, never the event thread: a slow lookup
  // on one shard cannot delay a fast one on another.
  std::size_t seg_size;
  {
    MutexLock seg(&seg_mu_);
    seg_size = segment_.size();
  }
  const double overflow = ReplicaOverflowFraction();
  if (overflow <= 0) return;
  const double disk_filters = static_cast<double>(seg_size + 1) * overflow;
  const auto delay_us = static_cast<std::int64_t>(
      disk_filters * config_.latency.spilled_probe_ms * 1000.0);
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
}

std::uint64_t MdsServer::LookupStateBytes() const {
  std::uint64_t bytes = 0;
  {
    MutexLock filter(&filter_mu_);
    bytes += local_filter_.MemoryBytes();
  }
  {
    MutexLock seg(&seg_mu_);
    bytes += segment_.MemoryBytes();
  }
  for (const auto& shard : shards_) {
    bytes += shard->lru_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

double MdsServer::ReplicaOverflowFraction() const {
  // As in the simulator (ClusterBase::ChargeMemory): the budget governs the
  // replica working set — the quantity the schemes differ on. The LRU array
  // and local filter are small at production scale and accounted elsewhere.
  std::uint64_t replica_bytes;
  {
    MutexLock seg(&seg_mu_);
    replica_bytes = segment_.MemoryBytes();
  }
  if (replica_bytes == 0) return 0.0;
  const std::uint64_t room = config_.memory_budget_bytes;
  if (replica_bytes <= room) return 0.0;
  return static_cast<double>(replica_bytes - room) /
         static_cast<double>(replica_bytes);
}

std::vector<std::uint8_t> MdsServer::HandleProbe(MsgType type, ByteReader& in,
                                                 Shard& shard, bool& respond) {
  respond = true;
  switch (type) {
    case MsgType::kLookupLocal:
    case MsgType::kGroupProbe: {
      auto req = DecodeProbeRequest(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      if (type == MsgType::kLookupLocal) {
        ++serve_local_lookups_;
      } else {
        ++serve_group_probes_;
      }
      return EncodeLocalLookupResp(RunLocalLookup(
          req->path, type == MsgType::kLookupLocal, req->lease, shard));
    }
    case MsgType::kGlobalProbe: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      ++serve_global_probes_;
      // Authoritative: filter screens, store confirms (no false negatives).
      bool may;
      {
        MutexLock filter(&filter_mu_);
        may = local_filter_.MayContain(*path);
      }
      return EncodeBoolResp(may && shard.store.Contains(*path));
    }
    case MsgType::kVerify: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      ++serve_verifies_;
      const SelfAnswer self = AnswerForSelf(
          *path, OwnFilterMayContain(*path), /*lease=*/false, shard);
      if (self.verdict == SelfVerdict::kShed) {
        return EncodeStatusResp(
            Status::RetryAfter("hot path on an overloaded shard"));
      }
      return EncodeBoolResp(self.verdict == SelfVerdict::kHeld);
    }
    case MsgType::kTouchLru: {
      respond = false;
      auto path = in.GetString();
      if (!path.ok()) return {};
      auto home = in.GetU32();
      if (!home.ok()) return {};
      shard.lru.Touch(*path, *home);
      shard.lru_bytes.store(shard.lru.MemoryBytes(),
                            std::memory_order_relaxed);
      return {};
    }
    case MsgType::kLeaseGrant: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      // The reply is a verify as well as a lease: count it as both.
      ++serve_verifies_;
      ++serve_lease_requests_;
      const SelfAnswer self = AnswerForSelf(
          *path, OwnFilterMayContain(*path), /*lease=*/true, shard);
      if (self.verdict == SelfVerdict::kShed) {
        return EncodeStatusResp(
            Status::RetryAfter("hot path on an overloaded shard"));
      }
      LeaseGrantResp resp;
      if (self.verdict == SelfVerdict::kHeld) {
        resp.held = true;
        resp.home = id_;
        resp.ttl_ms = self.lease_ttl_ms;
      }
      if (resp.ttl_ms == 0) ++serve_lease_refusals_;
      return EncodeLeaseGrantResp(resp);
    }
    case MsgType::kReportOutcome: {
      // One-way: the coordinating client tells its entry server how the
      // lookup it started here ended, so Fig. 13's per-level hit counts
      // accumulate server-side and export via kStatsSnapshot.
      respond = false;
      auto report = DecodeOutcomeReport(in);
      if (!report.ok()) return {};
      switch (report->level) {
        case 1: ++outcome_l1_; break;
        case 2: ++outcome_l2_; break;
        case 3: ++outcome_l3_; break;
        default:
          if (report->found) {
            ++outcome_l4_;
          } else {
            ++outcome_miss_;
          }
          break;
      }
      if (report->false_route) ++outcome_false_routes_;
      outcome_latency_ms_.Add(static_cast<double>(report->elapsed_ns) / 1e6);
      return {};
    }
    default:
      break;
  }
  return EncodeStatusResp(Status::InvalidArgument("not a probe request"));
}

std::vector<std::uint8_t> MdsServer::Handle(
    const std::vector<std::uint8_t>& frame, Shard& shard, bool& respond,
    bool& shutdown) {
  respond = true;
  shutdown = false;
  ByteReader in(frame);
  const auto type = DecodeType(in);
  if (!type.ok()) return EncodeStatusResp(type.status());

  switch (*type) {
    case MsgType::kLookupLocal:
    case MsgType::kGroupProbe:
    case MsgType::kGlobalProbe:
    case MsgType::kVerify:
    case MsgType::kTouchLru:
    case MsgType::kLeaseGrant:
    case MsgType::kReportOutcome:
      return HandleProbe(*type, in, shard, respond);
    case MsgType::kInsert: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      auto md = FileMetadata::Deserialize(in);
      if (!md.ok()) return EncodeStatusResp(md.status());
      // A prepared txn op owns this path until its coordinator's verdict
      // lands; racing a plain insert past it could contradict the vote.
      // (Prepare and insert share this shard worker, so no check/apply gap.)
      if (txn_.IsLocked(*path)) {
        return EncodeStatusResp(
            Status::Unavailable("path intent-locked by an in-flight txn"));
      }
      // Apply first, then log, then ack: the WAL records only mutations
      // that succeeded, and the client is only ever acked a mutation the
      // log took (a failed log call rolls the memory state back).
      Status s = shard.store.Insert(*path, *md);
      if (s.ok()) {
        {
          MutexLock filter(&filter_mu_);
          local_filter_.Add(*path);
        }
        bool checkpoint_due = false;
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogInsert(*path, *md); !w.ok()) {
              // Rollback of the insert we just made; both entries exist.
              (void)shard.store.Remove(*path);
              MutexLock filter(&filter_mu_);
              (void)local_filter_.Remove(*path);  // ditto
              s = w;
            } else {
              checkpoint_due = engine_->CheckpointDue();
            }
          }
        }
        if (checkpoint_due) NoteCheckpointDue();
      }
      shard.files.store(shard.store.size(), std::memory_order_relaxed);
      return EncodeStatusResp(s);
    }
    case MsgType::kUnlink: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      // Same fence as kInsert: an unlink under a prepare-remove would make
      // the already-journaled vote metadata a lie.
      if (txn_.IsLocked(*path)) {
        return EncodeStatusResp(
            Status::Unavailable("path intent-locked by an in-flight txn"));
      }
      // Kept for rollback should the WAL append fail below.
      auto old_md = shard.store.Lookup(*path);
      Status s = shard.store.Remove(*path);
      if (s.ok()) {
        {
          MutexLock filter(&filter_mu_);
          // Store remove succeeded, so the filter holds the path; a CBF
          // underflow here would mean divergence, caught by checkpoint
          // audits rather than failing the client's unlink.
          (void)local_filter_.Remove(*path);
        }
        bool checkpoint_due = false;
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogRemove(*path); !w.ok()) {
              // Rollback: re-insert what we removed two lines up.
              (void)shard.store.Insert(*path, std::move(*old_md));
              MutexLock filter(&filter_mu_);
              local_filter_.Add(*path);
              s = w;
            } else {
              checkpoint_due = engine_->CheckpointDue();
            }
          }
        }
        if (checkpoint_due) NoteCheckpointDue();
        // The path is gone: any lease out there must not outlive it. The
        // coordinator broadcasts kInvalidate to the rest of the group;
        // this covers the shard that served the unlink itself.
        shard.leases.erase(*path);
      }
      shard.files.store(shard.store.size(), std::memory_order_relaxed);
      return EncodeStatusResp(s);
    }
    case MsgType::kGetFilter: {
      MutexLock filter(&filter_mu_);
      return EncodeFilterResp(local_filter_.ToBloomFilter());
    }
    case MsgType::kReplicaInstall: {
      auto owner = in.GetU32();
      if (!owner.ok()) return EncodeStatusResp(owner.status());
      // Keep the raw compressed blob: the WAL journals it opaquely, so a
      // crash after this ack replays the install on recovery (the migration
      // handoff's "ship delta" phase is durable once acked).
      auto blob = in.GetBytes(in.remaining());
      if (!blob.ok()) return EncodeStatusResp(blob.status());
      ByteReader blob_in(*blob);
      auto filter = DecompressFilter(blob_in);
      if (!filter.ok()) return EncodeStatusResp(filter.status());
      if (!blob_in.AtEnd()) {
        return EncodeStatusResp(
            Status::Corruption("replica install trailing bytes"));
      }
      ++reconfig_messages_;
      // Same discipline as kInsert: apply, then log, then ack — a failed
      // log call restores the previous segment entry and nacks.
      Status s;
      bool had_old = false;
      BloomFilter old_filter;
      {
        MutexLock seg(&seg_mu_);
        const BloomFilter* existing = segment_.Find(*owner);
        if (existing != nullptr) {
          had_old = true;
          old_filter = *existing;
          s = segment_.RefreshEntry(*owner, *filter);
        } else {
          s = segment_.AddEntry(*owner, std::move(*filter));
        }
      }
      if (s.ok()) {
        bool checkpoint_due = false;
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogReplicaInstall(*owner, *blob);
                !w.ok()) {
              MutexLock seg(&seg_mu_);
              if (had_old) {
                // Rollback to the entry displaced above; owner is present.
                (void)segment_.RefreshEntry(*owner, old_filter);
              } else {
                // Rollback of the install above; owner is present.
                (void)segment_.RemoveEntry(*owner);
              }
              s = w;
            } else {
              checkpoint_due = engine_->CheckpointDue();
            }
          }
        }
        if (checkpoint_due) NoteCheckpointDue();
      }
      return EncodeStatusResp(s);
    }
    case MsgType::kReplicaDrop: {
      auto owner = in.GetU32();
      if (!owner.ok()) return EncodeStatusResp(owner.status());
      ++reconfig_messages_;
      Status removed;
      BloomFilter dropped;
      {
        MutexLock seg(&seg_mu_);
        auto r = segment_.RemoveEntry(*owner);
        removed = r.status();
        if (r.ok()) dropped = std::move(*r);
      }
      // Journal the retire phase; on log failure restore the entry and
      // nack so the coordinator retries instead of losing the replica.
      if (removed.ok()) {
        bool checkpoint_due = false;
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogReplicaDrop(*owner); !w.ok()) {
              MutexLock seg(&seg_mu_);
              // Restoring the entry removed above; the slot is free.
              (void)segment_.AddEntry(*owner, std::move(dropped));
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        if (checkpoint_due) NoteCheckpointDue();
      }
      // Purge the dropped home from every shard's L1: this shard's now,
      // the others via internal tasks (a briefly stale entry elsewhere
      // only costs a failed verify, which the lookup cascade absorbs).
      shard.lru.DropHome(*owner);
      shard.lru_bytes.store(shard.lru.MemoryBytes(),
                            std::memory_order_relaxed);
      for (const auto& other : shards_) {
        if (other->index == shard.index) continue;
        Task purge;
        purge.conn_id = 0;  // internal: no response slot
        purge.drop_home = *owner;
        PostTask(other->index, std::move(purge));
      }
      return EncodeStatusResp(removed);
    }
    case MsgType::kReplicaFetch: {
      auto owner = in.GetU32();
      if (!owner.ok()) return EncodeStatusResp(owner.status());
      MutexLock seg(&seg_mu_);
      const BloomFilter* filter = segment_.Find(*owner);
      if (filter == nullptr) {
        return EncodeStatusResp(Status::NotFound("no such replica"));
      }
      return EncodeFilterResp(*filter);
    }
    case MsgType::kGetStats: {
      StatsResp stats;
      stats.frames_in = frames_in();
      stats.frames_out = frames_out();
      for (const auto& s : shards_) {
        stats.files += s->files.load(std::memory_order_relaxed);
      }
      {
        MutexLock seg(&seg_mu_);
        stats.replicas = segment_.size();
      }
      return EncodeStatsResp(stats);
    }
    case MsgType::kPing:
      return EncodeStatusResp(Status::Ok());
    case MsgType::kVersion:
      return EncodeVersionResp(kProtocolVersion);
    case MsgType::kStatsSnapshot: {
      StatsSnapshotResp snap;
      snap.mds_id = id_;
      snap.frames_in = frames_in();
      snap.frames_out = frames_out();
      for (const auto& s : shards_) {
        snap.files += s->files.load(std::memory_order_relaxed);
      }
      {
        MutexLock seg(&seg_mu_);
        snap.replicas = segment_.size();
      }
      snap.lookup_state_bytes = LookupStateBytes();
      snap.metrics = registry_.Snapshot();
      return EncodeStatsSnapshotResp(snap);
    }
    case MsgType::kExportFiles:
      // The event thread hands exports to the maintenance thread; reaching
      // a worker means the frame arrived somewhere it cannot be honoured
      // (e.g. smuggled into a batch past DecodeBatchRequest).
      return EncodeStatusResp(
          Status::InvalidArgument("kExportFiles cannot run on a shard"));
    case MsgType::kShutdown:
      respond = false;
      shutdown = true;
      return {};
    case MsgType::kRecoveryInfo: {
      RecoveryInfoResp info;
      MutexLock wal(&wal_mu_);
      if (engine_ != nullptr) {
        const RecoveryInfo& r = engine_->recovery_info();
        info.durable = true;
        info.files = r.recovered_files;
        info.wal_seq = r.wal_seq;
        info.replay_records = r.replay_records;
        info.torn_tail = r.torn_tail;
        info.filter_rebuilt = r.filter_rebuilt;
        info.filter_matched = r.filter_matched;
        info.txn_in_doubt = r.txn_in_doubt;
      }
      return EncodeRecoveryInfoResp(info);
    }
    case MsgType::kInvalidate: {
      auto path = in.GetString();
      if (!path.ok()) return EncodeStatusResp(path.status());
      ++serve_invalidations_;
      shard.leases.erase(*path);
      // Also drop any L1 hint for the path: after an unlink or a
      // migration the cached (path -> home) would be a stale positive.
      shard.lru.Invalidate(*path);
      shard.lru_bytes.store(shard.lru.MemoryBytes(),
                            std::memory_order_relaxed);
      return EncodeStatusResp(Status::Ok());
    }
    case MsgType::kTxnBegin: {
      auto req = DecodeTxnBegin(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      ++serve_txn_begins_;
      bool checkpoint_due = false;
      {
        MutexLock txn(&txn_.mu());
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogTxnBegin(req->txn_id,
                                                req->participants);
                !w.ok()) {
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        txn_.BeginLocked(req->txn_id);
      }
      if (checkpoint_due) NoteCheckpointDue();
      return EncodeStatusResp(Status::Ok());
    }
    case MsgType::kTxnPrepare: {
      auto req = DecodeTxnPrepare(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      ++serve_txn_prepares_;
      TxnPrepareResp resp;
      bool checkpoint_due = false;
      {
        MutexLock txn(&txn_.mu());
        if (txn_.ClosedOutcomeLocked(req->txn_id).has_value()) {
          // A replayed prepare after this server already closed the txn:
          // the outcome is fixed, re-staging it could only diverge.
          return EncodeStatusResp(
              Status::InvalidArgument("txn already closed on this server"));
        }
        if (txn_.IsLockedByOtherLocked(req->path, req->txn_id)) {
          return EncodeStatusResp(
              Status::Unavailable("path intent-locked by another txn"));
        }
        TxnPendingOp op;
        op.txn_id = req->txn_id;
        op.subop = req->subop;
        op.path = req->path;
        op.coordinator = req->coordinator;
        op.participants = req->participants;
        if (req->subop == TxnSubOp::kRemove) {
          // The yes-vote carries the doomed file's metadata so a rename
          // driver can stage the insert without a separate read RPC.
          auto md = shard.store.Lookup(req->path);
          if (!md.ok()) {
            // NO vote: nothing journaled, nothing locked.
            return EncodeStatusResp(
                Status::NotFound("prepare-remove: no such path"));
          }
          resp.has_metadata = true;
          resp.metadata = std::move(*md);
        } else {
          if (shard.store.Contains(req->path)) {
            return EncodeStatusResp(
                Status::AlreadyExists("prepare-insert: path exists"));
          }
          op.metadata = std::move(req->metadata);
        }
        // Journal before indexing: once the ack leaves, a crash must
        // recover this op as in-doubt, intent lock and all.
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogTxnPrepare(op); !w.ok()) {
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        txn_.AddPendingLocked(std::move(op));
      }
      if (checkpoint_due) NoteCheckpointDue();
      return EncodeTxnPrepareResp(resp);
    }
    case MsgType::kTxnDecide: {
      auto req = DecodeTxnDecide(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      bool checkpoint_due = false;
      {
        MutexLock txn(&txn_.mu());
        const auto prior = txn_.QueryLocked(req->txn_id);
        if (prior.has_value() && *prior != TxnCoordState::kBegun) {
          const bool committed = *prior == TxnCoordState::kCommitted;
          if (committed == req->commit) {
            return EncodeStatusResp(Status::Ok());  // idempotent re-decide
          }
          // A durable verdict never flips; participants may already have
          // acted on the recorded one.
          return EncodeStatusResp(
              Status::InvalidArgument("txn decision already fixed"));
        }
        if (!prior.has_value() && req->commit) {
          // Unknown txn (never begun here, or pruned): a resolver may have
          // already answered "aborted" for it under presumed abort, so a
          // late commit verdict is unsafe to record.
          return EncodeStatusResp(
              Status::InvalidArgument("commit decision for unknown txn"));
        }
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogTxnDecision(req->txn_id, req->commit);
                !w.ok()) {
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        txn_.DecideLocked(req->txn_id, req->commit);
      }
      if (checkpoint_due) NoteCheckpointDue();
      return EncodeStatusResp(Status::Ok());
    }
    case MsgType::kTxnCommit: {
      auto req = DecodeTxnFinish(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      ++serve_txn_commits_;
      bool checkpoint_due = false;
      {
        MutexLock txn(&txn_.mu());
        const TxnPendingOp* found =
            txn_.FindPendingLocked(req->txn_id, req->path);
        if (found == nullptr) {
          // Retry of a commit this server already applied and closed (or
          // whose history aged out — the apply is idempotent either way).
          return EncodeStatusResp(Status::Ok());
        }
        const TxnPendingOp op = *found;  // ClosePending invalidates `found`
        std::optional<FileMetadata> old_md;  // rollback payload for removes
        Status s;
        if (op.subop == TxnSubOp::kInsert) {
          s = shard.store.Insert(op.path, op.metadata);
        } else {
          auto looked = shard.store.Lookup(op.path);
          if (looked.ok()) old_md = std::move(*looked);
          s = shard.store.Remove(op.path);
        }
        if (!s.ok()) return EncodeStatusResp(s);
        {
          MutexLock filter(&filter_mu_);
          if (op.subop == TxnSubOp::kInsert) {
            local_filter_.Add(op.path);
          } else {
            // Store remove succeeded, so the filter holds the path (same
            // underflow tolerance as kUnlink).
            (void)local_filter_.Remove(op.path);
          }
        }
        // One WAL frame applies the sub-op and closes the prepare; replay
        // can never see a half-applied commit.
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogTxnCommit(op); !w.ok()) {
              // Rollback: the prepare stays pending, the coordinator's
              // verdict still stands, and the resolver retries the close.
              if (op.subop == TxnSubOp::kInsert) {
                (void)shard.store.Remove(op.path);  // undo the insert above
                MutexLock filter(&filter_mu_);
                (void)local_filter_.Remove(op.path);  // ditto
              } else if (old_md.has_value()) {
                // Restore what was removed above; the slot is free.
                (void)shard.store.Insert(op.path, std::move(*old_md));
                MutexLock filter(&filter_mu_);
                local_filter_.Add(op.path);
              }
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        // The path is gone: no lease may outlive it (kUnlink discipline).
        if (op.subop == TxnSubOp::kRemove) shard.leases.erase(op.path);
        txn_.ClosePendingLocked(req->txn_id, req->path, /*committed=*/true);
      }
      shard.files.store(shard.store.size(), std::memory_order_relaxed);
      if (checkpoint_due) NoteCheckpointDue();
      return EncodeStatusResp(Status::Ok());
    }
    case MsgType::kTxnAbort: {
      auto req = DecodeTxnFinish(in);
      if (!req.ok()) return EncodeStatusResp(req.status());
      ++serve_txn_aborts_;
      bool checkpoint_due = false;
      {
        MutexLock txn(&txn_.mu());
        if (txn_.FindPendingLocked(req->txn_id, req->path) == nullptr) {
          return EncodeStatusResp(Status::Ok());  // idempotent: not staged
        }
        {
          MutexLock wal(&wal_mu_);
          if (engine_ != nullptr) {
            if (Status w = engine_->LogTxnAbort(req->txn_id, req->path);
                !w.ok()) {
              return EncodeStatusResp(w);
            }
            checkpoint_due = engine_->CheckpointDue();
          }
        }
        txn_.ClosePendingLocked(req->txn_id, req->path, /*committed=*/false);
      }
      if (checkpoint_due) NoteCheckpointDue();
      return EncodeStatusResp(Status::Ok());
    }
    case MsgType::kTxnResolve: {
      auto txn_id = DecodeTxnResolve(in);
      if (!txn_id.ok()) return EncodeStatusResp(txn_id.status());
      ++serve_txn_resolves_;
      TxnResolveResp resp;
      {
        MutexLock txn(&txn_.mu());
        if (const auto state = txn_.QueryLocked(*txn_id)) {
          switch (*state) {
            case TxnCoordState::kBegun:
              resp.state = TxnDecisionState::kPending;
              break;
            case TxnCoordState::kCommitted:
              resp.state = TxnDecisionState::kCommitted;
              break;
            case TxnCoordState::kAborted:
              resp.state = TxnDecisionState::kAborted;
              break;
          }
        } else {
          resp.state = TxnDecisionState::kUnknown;  // presumed abort
        }
      }
      return EncodeTxnResolveResp(resp);
    }
    case MsgType::kTxnList: {
      TxnListResp resp;
      for (const TxnPendingOp& op : txn_.Pending()) {
        TxnListEntry entry;
        entry.txn_id = op.txn_id;
        entry.coordinator = op.coordinator;
        entry.subop = op.subop;
        entry.path = op.path;
        resp.entries.push_back(std::move(entry));
      }
      return EncodeTxnListResp(resp);
    }
    case MsgType::kBatch: {
      // Only reachable when DecodeBatchRequest failed on the event thread:
      // re-decode here so the client gets the precise parse error.
      auto subs = DecodeBatchRequest(in);
      if (!subs.ok()) return EncodeStatusResp(subs.status());
      return EncodeStatusResp(
          Status::InvalidArgument("nested batch dispatch"));
    }
  }
  return EncodeStatusResp(Status::Corruption("unhandled message type"));
}

}  // namespace ghba

#include "client/daemon_harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace ghba {

namespace {
std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

DaemonProcess::~DaemonProcess() { Terminate(); }

DaemonProcess::DaemonProcess(DaemonProcess&& other) noexcept
    : options_(std::move(other.options_)),
      pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      port_(other.port_) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

DaemonProcess& DaemonProcess::operator=(DaemonProcess&& other) noexcept {
  if (this != &other) {
    Terminate();
    options_ = std::move(other.options_);
    pid_ = other.pid_;
    stdout_fd_ = other.stdout_fd_;
    port_ = other.port_;
    other.pid_ = -1;
    other.stdout_fd_ = -1;
  }
  return *this;
}

Status DaemonProcess::Start() {
  if (running()) return Status::InvalidArgument("daemon already running");
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }

  const pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout through the pipe, then become the daemon. Port 0 makes
    // the kernel pick; the parent learns it from the listening line.
    dup2(pipefd[1], STDOUT_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    const std::string id_arg = std::to_string(options_.id);
    const std::string files_arg = std::to_string(options_.expected_files);
    std::vector<const char*> argv{options_.binary.c_str(), id_arg.c_str(),
                                  "0", files_arg.c_str()};
    if (!options_.data_dir.empty()) {
      argv.push_back("--data-dir");
      argv.push_back(options_.data_dir.c_str());
      argv.push_back("--fsync");
      argv.push_back(options_.fsync.c_str());
    }
    argv.push_back(nullptr);
    execv(options_.binary.c_str(), const_cast<char* const*>(argv.data()));
    std::fprintf(stderr, "execv %s: %s\n", options_.binary.c_str(),
                 std::strerror(errno));
    _exit(127);
  }

  // Parent: read the child's stdout until the listening line names a port.
  close(pipefd[1]);
  pid_ = pid;
  stdout_fd_ = pipefd[0];

  std::string seen;
  const std::uint64_t deadline = SteadyNowMs() + options_.start_timeout_ms;
  while (true) {
    if (const auto at = seen.find("listening on 127.0.0.1:");
        at != std::string::npos) {
      // The line may still be mid-write; wait for its newline so the port
      // number is complete.
      if (const auto eol = seen.find('\n', at); eol != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::atoi(seen.c_str() + at + std::strlen("listening on 127.0.0.1:")));
        if (port_ != 0) return Status::Ok();
        Kill9();
        return Status::Internal("daemon reported port 0");
      }
    }
    const std::uint64_t now = SteadyNowMs();
    if (now >= deadline) {
      Kill9();
      return Status::Unavailable("daemon did not report a port in time");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int n = poll(&pfd, 1, static_cast<int>(deadline - now));
    if (n == 0) continue;  // timeout: the loop re-checks the deadline
    if (n < 0) {
      if (errno == EINTR) continue;
      Kill9();
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    char buf[256];
    const ssize_t got = read(stdout_fd_, buf, sizeof(buf));
    if (got > 0) {
      seen.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0) {
      Reap();
      return Status::Unavailable("daemon exited before listening");
    } else if (errno != EINTR && errno != EAGAIN) {
      Kill9();
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
  }
}

void DaemonProcess::Kill9() {
  if (!running()) return;
  kill(pid_, SIGKILL);
  Reap();
}

void DaemonProcess::Terminate() {
  if (!running()) return;
  kill(pid_, SIGTERM);
  Reap();
}

void DaemonProcess::Reap() {
  if (pid_ > 0) {
    int wstatus = 0;
    waitpid(pid_, &wstatus, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
  port_ = 0;
}

// --- DaemonTxnTransport ---------------------------------------------------

void DaemonTxnTransport::SetPort(MdsId id, std::uint16_t port) {
  Peer& peer = peers_[id];
  peer.port = port;
  peer.dead = false;
  peer.session.reset();
}

void DaemonTxnTransport::MarkDead(MdsId id) {
  Peer& peer = peers_[id];
  peer.dead = true;
  peer.session.reset();
}

DaemonClient* DaemonTxnTransport::Session(MdsId id) {
  const auto it = peers_.find(id);
  if (it == peers_.end() || it->second.port == 0) return nullptr;
  if (!it->second.session.has_value()) {
    auto conn = DaemonClient::Connect(it->second.port, io_timeout_ms_);
    if (!conn.ok()) return nullptr;
    it->second.session.emplace(std::move(*conn));
  }
  return &*it->second.session;
}

void DaemonTxnTransport::Invalidate(MdsId id) {
  if (const auto it = peers_.find(id); it != peers_.end()) {
    it->second.session.reset();
  }
}

Result<std::optional<FileMetadata>> DaemonTxnTransport::TxnPrepare(
    MdsId participant, const TxnPendingOp& op) {
  DaemonClient* c = Session(participant);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  TxnPrepareReq req;
  req.path = op.path;
  req.txn_id = op.txn_id;
  req.coordinator = op.coordinator;
  req.subop = op.subop;
  req.participants = op.participants;
  req.metadata = op.metadata;
  auto resp = c->TxnPrepare(req);
  if (!resp.ok()) {
    Invalidate(participant);
    return resp.status();
  }
  if (!resp->has_metadata) return std::optional<FileMetadata>();
  return std::optional<FileMetadata>(resp->metadata);
}

Status DaemonTxnTransport::TxnDecide(MdsId coordinator, std::uint64_t txn_id,
                                     bool commit) {
  DaemonClient* c = Session(coordinator);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  Status s = c->TxnDecide(txn_id, commit);
  if (!s.ok()) Invalidate(coordinator);
  return s;
}

Status DaemonTxnTransport::TxnCommit(MdsId participant, std::uint64_t txn_id,
                                     const std::string& path) {
  DaemonClient* c = Session(participant);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  Status s = c->TxnCommit(txn_id, path);
  if (!s.ok()) Invalidate(participant);
  return s;
}

Status DaemonTxnTransport::TxnAbort(MdsId participant, std::uint64_t txn_id,
                                    const std::string& path) {
  DaemonClient* c = Session(participant);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  Status s = c->TxnAbort(txn_id, path);
  if (!s.ok()) Invalidate(participant);
  return s;
}

Result<std::vector<TxnPendingOp>> DaemonTxnTransport::TxnList(MdsId server) {
  DaemonClient* c = Session(server);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  auto resp = c->TxnList();
  if (!resp.ok()) {
    Invalidate(server);
    return resp.status();
  }
  std::vector<TxnPendingOp> out;
  out.reserve(resp->entries.size());
  for (const TxnListEntry& e : resp->entries) {
    TxnPendingOp op;
    op.txn_id = e.txn_id;
    op.coordinator = e.coordinator;
    op.subop = e.subop;
    op.path = e.path;
    out.push_back(std::move(op));
  }
  return out;
}

Result<TxnResolution> DaemonTxnTransport::TxnQueryDecision(
    MdsId coordinator, std::uint64_t txn_id) {
  DaemonClient* c = Session(coordinator);
  if (c == nullptr) return Status::Unavailable("server unreachable");
  auto resp = c->TxnResolve(txn_id);
  if (!resp.ok()) {
    Invalidate(coordinator);
    return resp.status();
  }
  switch (*resp) {
    case TxnDecisionState::kPending: return TxnResolution::kPending;
    case TxnDecisionState::kCommitted: return TxnResolution::kCommitted;
    case TxnDecisionState::kAborted: return TxnResolution::kAborted;
    case TxnDecisionState::kUnknown: break;
  }
  return TxnResolution::kUnknown;
}

bool DaemonTxnTransport::TxnServerConfirmedDead(MdsId server) {
  const auto it = peers_.find(server);
  return it != peers_.end() && it->second.dead;
}

}  // namespace ghba

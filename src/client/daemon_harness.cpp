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
#include <memory>
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

DaemonTxnTransport::DaemonTxnTransport()
    : router_(RpcOptions{}, /*seed=*/0, &health_, &metrics_) {}

void DaemonTxnTransport::SetPort(MdsId id, std::uint16_t port) {
  if (ports_.size() <= id) ports_.resize(id + 1, 0);
  ports_[id] = port;
  // The Router pools connections only to the ports it was handed last,
  // and closes idle ones to a port that left.
  auto topo = std::make_shared<Topology>();
  topo->port = ports_;
  router_.Publish(std::move(topo));
}

Result<std::vector<std::uint8_t>> DaemonTxnTransport::Call(
    MdsId server, const std::vector<std::uint8_t>& frame) {
  const std::uint16_t port = server < ports_.size() ? ports_[server] : 0;
  return router_.Call(server, port, frame, /*suspects=*/nullptr);
}

}  // namespace ghba

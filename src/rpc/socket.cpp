#include "rpc/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "common/bytes.hpp"
#include "rpc/wire_buffer.hpp"

namespace ghba {

namespace {
Status Errno(const char* what) {
  return Status::Unavailable(std::string(what) + ": " + std::strerror(errno));
}

/// Wait until `fd` is ready for `events` or the deadline passes.
/// 1 = ready, 0 = deadline expired, -1 = poll error (errno set).
int WaitReady(int fd, short events, const Deadline& deadline) {
  pollfd p{fd, events, 0};
  while (true) {
    const int timeout_ms = deadline.PollTimeoutMs();
    if (timeout_ms == 0) return 0;
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return 1;
    if (r == 0) {
      if (deadline.never()) continue;  // spurious zero; keep blocking
      if (deadline.expired()) return 0;
      continue;  // rounded-up timeout fired a hair early
    }
    if (errno == EINTR) continue;
    return -1;
  }
}

Status SetNonBlocking(int fd, bool enable) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int next = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, next) < 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}
}  // namespace

int Deadline::PollTimeoutMs() const {
  if (!at_.has_value()) return -1;
  const auto now = std::chrono::steady_clock::now();
  if (now >= *at_) return 0;
  const auto remaining =
      std::chrono::ceil<std::chrono::milliseconds>(*at_ - now).count();
  constexpr long kMax = 1000L * 60 * 60;  // clamp absurd deadlines to 1 h
  return static_cast<int>(remaining < kMax ? remaining : kMax);
}

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int FdHandle::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void FdHandle::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpConnection> TcpConnection::Connect(std::uint16_t port,
                                             Deadline deadline,
                                             FaultInjector* injector) {
  if (injector != nullptr && injector->RefuseConnect()) {
    return Status::Unavailable("connect refused (injected fault)");
  }
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  if (deadline.never()) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Errno("connect");
    }
  } else {
    // Bounded connect: non-blocking connect, poll for writability, then
    // read the final verdict out of SO_ERROR.
    if (Status s = SetNonBlocking(fd.get(), true); !s.ok()) return s;
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) return Errno("connect");
      const int ready = WaitReady(fd.get(), POLLOUT, deadline);
      if (ready == 0) return Status::TimedOut("connect deadline expired");
      if (ready < 0) return Errno("poll(connect)");
      int err = 0;
      socklen_t err_len = sizeof(err);
      if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
        return Errno("getsockopt(SO_ERROR)");
      }
      if (err != 0) {
        return Status::Unavailable(std::string("connect: ") +
                                   std::strerror(err));
      }
    }
    if (Status s = SetNonBlocking(fd.get(), false); !s.ok()) return s;
  }
  // Lookups are latency-sensitive small frames: disable Nagle.
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  TcpConnection conn(std::move(fd));
  conn.set_injector(injector);
  conn.peer_port_ = port;
  return conn;
}

// Both loops try the syscall first and poll only when the socket says
// EAGAIN: a frame whose bytes fit the socket buffer (or are already
// waiting in it) costs one syscall instead of a poll plus the call.
Status TcpConnection::SendAll(const std::uint8_t* data, std::size_t len,
                              const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < len) {
    if (deadline.expired()) return Status::TimedOut("send deadline expired");
    const ssize_t n = ::send(fd_.get(), data + sent, len - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("send");
    const int ready = WaitReady(fd_.get(), POLLOUT, deadline);
    if (ready == 0) return Status::TimedOut("send deadline expired");
    if (ready < 0) return Errno("poll(send)");
  }
  return Status::Ok();
}

Status TcpConnection::RecvAll(std::uint8_t* data, std::size_t len,
                              const Deadline& deadline) {
  std::size_t got = 0;
  while (got < len) {
    if (deadline.expired()) return Status::TimedOut("recv deadline expired");
    const ssize_t n = ::recv(fd_.get(), data + got, len - got, MSG_DONTWAIT);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("peer closed");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("recv");
    const int ready = WaitReady(fd_.get(), POLLIN, deadline);
    if (ready == 0) return Status::TimedOut("recv deadline expired");
    if (ready < 0) return Errno("poll(recv)");
  }
  return Status::Ok();
}

Status TcpConnection::SendFrame(const std::vector<std::uint8_t>& payload,
                                Deadline deadline) {
  if (!fd_.valid()) return Status::Unavailable("closed connection");
  if (payload.size() > kMaxWireFrameBytes) {
    return Status::InvalidArgument("frame too large");
  }
  FaultInjector::FramePlan plan;
  if (injector_ != nullptr) {
    const std::uint16_t type =
        payload.size() >= 2
            ? static_cast<std::uint16_t>(payload[0] | (payload[1] << 8))
            : 0;
    plan = injector_->PlanFrame(peer_port_, type);
    if (plan.delay.count() > 0) std::this_thread::sleep_for(plan.delay);
  }
  // Header and body go out in one buffer and one send(2): with TCP_NODELAY
  // two writes would be two segments, and the peer's event loop could wake
  // once for each. BuildWireFrame applies the plan's fate — a dropped frame
  // vanishes as if lost on the wire (the sender believes it went out; the
  // receiver's deadline catches it), a truncated one advertises its full
  // length but delivers a prefix, a corrupted one fails the receiver's CRC.
  std::vector<std::uint8_t> wire;
  if (!BuildWireFrame(plan, payload, wire)) return Status::Ok();
  return SendAll(wire.data(), wire.size(), deadline);
}

Result<std::vector<std::uint8_t>> TcpConnection::RecvFrame(Deadline deadline) {
  if (!fd_.valid()) return Status::Unavailable("closed connection");
  std::uint8_t header[kFrameHeaderBytes];
  if (Status s = RecvAll(header, sizeof(header), deadline); !s.ok()) return s;
  if (header[0] != kFrameMagic0 || header[1] != kFrameMagic1) {
    // Desynchronized stream (e.g. a truncated frame swallowed the start of
    // this one): nothing downstream of this point can be trusted.
    return Status::Corruption("bad frame magic");
  }
  const std::uint32_t len = static_cast<std::uint32_t>(header[2]) |
                            (static_cast<std::uint32_t>(header[3]) << 8) |
                            (static_cast<std::uint32_t>(header[4]) << 16) |
                            (static_cast<std::uint32_t>(header[5]) << 24);
  const std::uint32_t crc = static_cast<std::uint32_t>(header[6]) |
                            (static_cast<std::uint32_t>(header[7]) << 8) |
                            (static_cast<std::uint32_t>(header[8]) << 16) |
                            (static_cast<std::uint32_t>(header[9]) << 24);
  if (len > kMaxWireFrameBytes) return Status::Corruption("frame too large");
  std::vector<std::uint8_t> payload(len);
  if (len > 0) {
    if (Status s = RecvAll(payload.data(), len, deadline); !s.ok()) return s;
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  return payload;
}

Result<TcpListener> TcpListener::Bind(std::uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);  // 0 = OS-assigned
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), 128) != 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    return Errno("getsockname");
  }
  TcpListener listener;
  listener.fd_ = std::move(fd);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Result<TcpConnection> TcpListener::Accept() {
  while (true) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpConnection(FdHandle(fd));
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

}  // namespace ghba

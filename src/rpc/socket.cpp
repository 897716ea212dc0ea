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

Status TcpConnection::SendAll(const std::uint8_t* data, std::size_t len,
                              const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < len) {
    if (!deadline.never()) {
      const int ready = WaitReady(fd_.get(), POLLOUT, deadline);
      if (ready == 0) return Status::TimedOut("send deadline expired");
      if (ready < 0) return Errno("poll(send)");
    }
    const ssize_t n =
        ::send(fd_.get(), data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status TcpConnection::RecvAll(std::uint8_t* data, std::size_t len,
                              const Deadline& deadline) {
  std::size_t got = 0;
  while (got < len) {
    if (!deadline.never()) {
      const int ready = WaitReady(fd_.get(), POLLIN, deadline);
      if (ready == 0) return Status::TimedOut("recv deadline expired");
      if (ready < 0) return Errno("poll(recv)");
    }
    const ssize_t n = ::recv(fd_.get(), data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("recv");
    }
    if (n == 0) return Status::Unavailable("peer closed");
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status TcpConnection::SendFrame(const std::vector<std::uint8_t>& payload,
                                Deadline deadline) {
  if (!fd_.valid()) return Status::Unavailable("closed connection");
  if (payload.size() > (64u << 20)) {
    return Status::InvalidArgument("frame too large");
  }

  const std::uint8_t* body = payload.data();
  std::size_t body_len = payload.size();
  std::vector<std::uint8_t> mutated;
  if (injector_ != nullptr) {
    const std::uint16_t type =
        payload.size() >= 2
            ? static_cast<std::uint16_t>(payload[0] | (payload[1] << 8))
            : 0;
    const auto plan = injector_->PlanFrame(peer_port_, type);
    if (plan.delay.count() > 0) std::this_thread::sleep_for(plan.delay);
    switch (plan.action) {
      case FaultInjector::FrameAction::kDrop:
        // The frame vanishes on the wire; the sender believes it went out,
        // exactly like a lost datagram. The receiver's deadline catches it.
        return Status::Ok();
      case FaultInjector::FrameAction::kTruncate:
        // Header still advertises the full length but only a prefix is
        // delivered: the receiver blocks mid-frame until its deadline
        // fires, like a peer crashing mid-send. This connection's framing
        // is poisoned afterwards; the receiver's magic/CRC check turns any
        // bytes that drift into the gap into kCorruption, and callers
        // evict the connection on the resulting error.
        mutated = payload;
        MutatePayload(plan, mutated);
        if (mutated.size() < payload.size()) {
          body = mutated.data();
          body_len = mutated.size();
        }
        break;
      case FaultInjector::FrameAction::kCorrupt:
        mutated = payload;
        MutatePayload(plan, mutated);
        body = mutated.data();
        body_len = mutated.size();
        break;
      case FaultInjector::FrameAction::kDeliver:
        break;
    }
  }

  // Framed as [magic:2][len:4][crc32:4][payload]. The CRC covers the
  // *intended* payload, so a receiver detects in-flight corruption,
  // truncation-induced stream desync, and short writes as kCorruption
  // instead of handing mangled bytes to the decoders.
  std::uint8_t header[kFrameHeaderBytes];
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload.data(), payload.size());
  header[0] = kFrameMagic0;
  header[1] = kFrameMagic1;
  header[2] = static_cast<std::uint8_t>(len);
  header[3] = static_cast<std::uint8_t>(len >> 8);
  header[4] = static_cast<std::uint8_t>(len >> 16);
  header[5] = static_cast<std::uint8_t>(len >> 24);
  header[6] = static_cast<std::uint8_t>(crc);
  header[7] = static_cast<std::uint8_t>(crc >> 8);
  header[8] = static_cast<std::uint8_t>(crc >> 16);
  header[9] = static_cast<std::uint8_t>(crc >> 24);
  if (Status s = SendAll(header, sizeof(header), deadline); !s.ok()) return s;
  if (body_len == 0) return Status::Ok();
  return SendAll(body, body_len, deadline);
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
  if (len > (64u << 20)) return Status::Corruption("frame too large");
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

// RAII TCP sockets for the loopback prototype.
//
// The prototype runs every MDS as an in-process server on 127.0.0.1 with a
// poll(2)-driven event loop; these wrappers own the file descriptors and
// provide framed message IO (magic + length + CRC-32 header, see
// kFrameMagic0 below) with optional deadlines:
// every Connect/SendFrame/RecvFrame takes an absolute Deadline and reports
// kTimedOut instead of blocking past it (the default Deadline never
// expires, preserving fully blocking behaviour). SIGPIPE suppressed;
// partial reads/writes handled. A connection may carry a FaultInjector,
// which gets to drop, delay, truncate, or corrupt each outgoing frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "rpc/fault_injector.hpp"

namespace ghba {

/// Wire framing: [magic:2][len:4 LE][crc32:4 LE][payload]. The magic marks
/// frame boundaries so a desynchronized stream (a truncated frame that
/// swallowed the next frame's header) is detected immediately; the CRC-32
/// covers the payload so in-flight corruption surfaces as kCorruption at
/// the framing layer instead of reaching the message decoders.
inline constexpr std::uint8_t kFrameMagic0 = 0xF5;
inline constexpr std::uint8_t kFrameMagic1 = 0x4D;
inline constexpr std::size_t kFrameHeaderBytes = 10;

/// Absolute time bound for a socket operation. Default-constructed
/// deadlines never expire.
class Deadline {
 public:
  Deadline() = default;

  /// Expires `timeout` from now.
  static Deadline After(std::chrono::milliseconds timeout) {
    Deadline d;
    d.at_ = std::chrono::steady_clock::now() + timeout;
    return d;
  }
  static Deadline Never() { return {}; }

  bool never() const { return !at_.has_value(); }
  bool expired() const {
    return at_.has_value() && std::chrono::steady_clock::now() >= *at_;
  }

  /// Remaining budget as a poll(2) timeout: -1 = block forever, 0 =
  /// already expired, else whole milliseconds (rounded up so a positive
  /// remainder never busy-spins).
  int PollTimeoutMs() const;

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
};

/// Owns a file descriptor; moves only.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  ~FdHandle() { Close(); }

  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  FdHandle(FdHandle&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  FdHandle& operator=(FdHandle&& other) noexcept;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

/// A connected TCP stream with 4-byte length-prefixed framing.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FdHandle fd) : fd_(std::move(fd)) {}

  /// Connect to 127.0.0.1:port. With a finite deadline the connect runs
  /// non-blocking and reports kTimedOut if the peer does not accept in
  /// time; kUnavailable covers refusals (including injected ones).
  static Result<TcpConnection> Connect(std::uint16_t port,
                                       Deadline deadline = Deadline::Never(),
                                       FaultInjector* injector = nullptr);

  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }

  /// Attach (or detach, with nullptr) a fault injector; affects every
  /// subsequent SendFrame on this connection.
  void set_injector(FaultInjector* injector) { injector_ = injector; }

  /// Send one frame (length prefix + payload). Blocks up to `deadline`.
  Status SendFrame(const std::vector<std::uint8_t>& payload,
                   Deadline deadline = Deadline::Never());

  /// Receive one frame. Blocks up to `deadline`; kUnavailable on orderly
  /// shutdown, kTimedOut when the deadline expires first.
  Result<std::vector<std::uint8_t>> RecvFrame(
      Deadline deadline = Deadline::Never());

  void Close() { fd_.Close(); }

 private:
  Status SendAll(const std::uint8_t* data, std::size_t len,
                 const Deadline& deadline);
  Status RecvAll(std::uint8_t* data, std::size_t len,
                 const Deadline& deadline);

  FdHandle fd_;
  FaultInjector* injector_ = nullptr;
  /// Port this connection dialled (0 for accepted connections): lets the
  /// injector aim a fault at the frames bound for one peer.
  std::uint16_t peer_port_ = 0;
};

/// Listening socket on 127.0.0.1; port 0 asks the OS to pick one.
class TcpListener {
 public:
  static Result<TcpListener> Bind(std::uint16_t port = 0);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

  /// Accept one connection (blocking).
  Result<TcpConnection> Accept();

  void Close() { fd_.Close(); }

 private:
  FdHandle fd_;
  std::uint16_t port_ = 0;
};

}  // namespace ghba

// Incremental, allocation-reusing frame IO for the epoll event thread.
//
// The blocking TcpConnection::RecvFrame reads exactly one frame per call;
// a non-blocking event loop instead receives whatever the kernel has and
// must carve complete frames out of an elastic buffer — possibly several
// per wakeup, possibly a frame split across many wakeups. FrameAssembler
// owns that buffer: Append() feeds raw bytes, Pop() yields complete
// payloads until the buffer runs dry. Storage is reused across frames and
// compacted lazily, so a busy connection allocates only when its high-water
// mark grows (the old loop re-allocated its pollfd set and one payload
// vector per frame, every iteration).
//
// BuildWireFrame lays out one frame and applies its fault plan — CRC over
// the *intended* payload, truncation/corruption mangle only the body — and
// produces bytes instead of writing a socket: TcpConnection::SendFrame
// writes them with one send(2), and the event thread queues responses with
// it without ever blocking. Injected delays are the caller's business
// (senders sleep; the event thread must not).
#pragma once

#include <cstdint>
#include <vector>

#include "rpc/fault_injector.hpp"

namespace ghba {

/// Frame size cap shared with the socket layer (64 MiB).
inline constexpr std::size_t kMaxWireFrameBytes = 64u << 20;

class FrameAssembler {
 public:
  /// Buffer `n` more raw stream bytes.
  void Append(const std::uint8_t* data, std::size_t n);

  enum class Next {
    kFrame,     ///< one complete payload extracted
    kNeedMore,  ///< no complete frame buffered yet
    kCorrupt,   ///< bad magic, oversize length or CRC mismatch: the stream
                ///< is poisoned and the connection must be dropped
  };

  /// Extract the next complete frame into `payload` (capacity reused).
  Next Pop(std::vector<std::uint8_t>& payload);

  /// Raw bytes buffered but not yet consumed.
  std::size_t buffered() const { return buf_.size() - off_; }

  /// Allocated buffer bytes (tests assert the storage is reused, not
  /// regrown, across frames).
  std::size_t capacity() const { return buf_.capacity(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t off_ = 0;  // consumed prefix, compacted lazily
};

/// Append one wire frame for `payload` to `out`, applying `plan`'s fate:
/// false = the frame is dropped (nothing appended), true = header + body
/// appended (body possibly truncated/corrupted per the plan). The header
/// always advertises the intended length and CRC.
bool BuildWireFrame(const FaultInjector::FramePlan& plan,
                    const std::vector<std::uint8_t>& payload,
                    std::vector<std::uint8_t>& out);

}  // namespace ghba
